package simgrid

import "math"

// expBatch, logBatch and cosBatch replace each element of xs by
// math.Exp, math.Log or math.Cos of it, bit for bit. On amd64 with AVX2
// and FMA a vector kernel (kernels_amd64.s) takes four elements at a
// time; an element it leaves — a lane outside its safe range, or the
// tail — goes through math itself, and the kernel picks up again after
// it.

func expBatch(xs []float64) {
	for i := 0; i < len(xs); i++ {
		if vectorOn {
			if i += expVec(xs[i:]); i == len(xs) {
				return
			}
		}
		xs[i] = math.Exp(xs[i])
	}
}

func logBatch(xs []float64) {
	for i := 0; i < len(xs); i++ {
		if vectorOn {
			if i += logVec(xs[i:]); i == len(xs) {
				return
			}
		}
		xs[i] = math.Log(xs[i])
	}
}

func cosBatch(xs []float64) {
	for i := 0; i < len(xs); i++ {
		if vectorOn {
			if i += cosVec(xs[i:]); i == len(xs) {
				return
			}
		}
		xs[i] = math.Cos(xs[i])
	}
}
