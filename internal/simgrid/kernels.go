package simgrid

import (
	"math"

	"carbonshift/internal/rng"
)

// lanes is the width of the vector kernels that run: 8, 4 or 0 (none),
// as the CPU probe reports; the tests lower it to run the narrower
// paths. From each element or hour it is handed, the eight-lane kernel
// runs first, the four-lane one from where it stops, and the Go loop
// takes the group where both stop.
var lanes = rng.VectorLanes()

// expBatch, logBatch and cosBatch replace each element of xs by
// math.Exp, math.Log or math.Cos of it, bit for bit. On amd64 the
// vector kernels (kernels_amd64.s) take eight or four elements at a
// time; an element both leave — a lane outside their safe range, or the
// tail — goes through math itself, and the kernels pick up again after
// it.

func expBatch(xs []float64) {
	for i := 0; i < len(xs); i++ {
		if lanes >= 8 {
			i += expVec8(xs[i:])
		}
		if lanes >= 4 {
			if i += expVec(xs[i:]); i == len(xs) {
				return
			}
		}
		xs[i] = math.Exp(xs[i])
	}
}

func logBatch(xs []float64) {
	for i := 0; i < len(xs); i++ {
		if lanes >= 8 {
			i += logVec8(xs[i:])
		}
		if lanes >= 4 {
			if i += logVec(xs[i:]); i == len(xs) {
				return
			}
		}
		xs[i] = math.Log(xs[i])
	}
}

func cosBatch(xs []float64) {
	for i := 0; i < len(xs); i++ {
		if lanes >= 8 {
			i += cosVec8(xs[i:])
		}
		if lanes >= 4 {
			if i += cosVec(xs[i:]); i == len(xs) {
				return
			}
		}
		xs[i] = math.Cos(xs[i])
	}
}
