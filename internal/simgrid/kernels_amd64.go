package simgrid

import "carbonshift/internal/rng"

// The vector kernels of kernels_amd64.s. Each replaces the elements of
// xs from the start, four at a time, with its math function's results,
// until a group holds a lane outside its safe range or fewer than four
// elements remain, and returns how many it replaced. None keeps xs, so
// a caller's block buffers stay on its stack.

//go:noescape
func expVec(xs []float64) int

//go:noescape
func logVec(xs []float64) int

//go:noescape
func cosVec(xs []float64) int

// The stage kernels of dispatch: each runs its stage loop
// (dispatchBlock's driftStage, levelStage, tiltStage, flexStage) over
// b's hours from i, four at a time, until a group holds a lane on a
// path it does not take or fewer than four hours remain, and returns
// how many it did.

//go:noescape
func driftVec(b *dispatchBlock, i int) int

//go:noescape
func levelVec(b *dispatchBlock, i int) int

//go:noescape
func tiltVec(b *dispatchBlock, i int) int

//go:noescape
func flexVec(b *dispatchBlock, i int) int

// The stage kernels of drawWeather, each its Go loop (drawWeather's
// solar and demand loop, normBatch's, the logistic loop) four hours or
// draws at a time until a group holds a lane it does not take or fewer
// than four remain; each returns how many it did. sunVec also stops at
// the end of the day.

//go:noescape
func sunVec(irr, demand []float64, day *sunDay, hod int) int

//go:noescape
func normVec(out, cosArgs []float64, mean, stddev float64) int

//go:noescape
func logisticVec(irr, wind, cloudE, windE []float64) int

// vectorOn selects the vector kernels; the tests switch it off to run
// the scalar path.
var vectorOn = rng.HasAVX2FMA()
