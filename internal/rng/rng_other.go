//go:build !amd64

package rng

// Other ports have no lane kernel: NormArgs3 runs NormArgsBatch on each
// stream.

var vectorOn = false

// VectorLanes reports 0: the vector kernels are amd64's.
func VectorLanes() int { return 0 }

func normArgs3Vec(st *[4][4]uint64, logArgs, cosArgs *[3][]float64, n int) {}
