//go:build !amd64

package simgrid

// Other ports have no vector kernels: kernels.go's loops call math's
// own functions for every element.

var vectorOn = false

func expVec(xs []float64) int { return 0 }
func logVec(xs []float64) int { return 0 }
func cosVec(xs []float64) int { return 0 }
