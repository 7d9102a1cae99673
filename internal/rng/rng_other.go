//go:build !amd64

package rng

// Other ports have no lane kernel: NormArgs3 runs NormArgsBatch on each
// stream.

var vectorOn = false

// HasAVX2FMA reports false: the vector kernels are amd64's.
func HasAVX2FMA() bool { return false }

func normArgs3Vec(st *[4][4]uint64, logArgs, cosArgs *[3][]float64, n int) {}
