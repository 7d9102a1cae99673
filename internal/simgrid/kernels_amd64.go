package simgrid

// The vector kernels of kernels_amd64.s. Each replaces the elements of
// xs from the start, four at a time (eight for the *Vec8 forms, which
// need AVX-512), with its math function's results, until a group holds
// a lane outside its safe range or fewer elements than a group remain,
// and returns how many it replaced. None keeps xs, so a caller's block
// buffers stay on its stack.

//go:noescape
func expVec(xs []float64) int

//go:noescape
func logVec(xs []float64) int

//go:noescape
func cosVec(xs []float64) int

//go:noescape
func expVec8(xs []float64) int

//go:noescape
func logVec8(xs []float64) int

//go:noescape
func cosVec8(xs []float64) int

// The stage kernels of dispatch: each runs its stage loop
// (dispatchBlock's driftStage, levelStage, tiltStage, flexStage) over
// b's hours from i, four at a time (tiltVec8 and flexVec8 eight), until
// a group holds a lane on a path it does not take or fewer hours than a
// group remain, and returns how many it did.

//go:noescape
func driftVec(b *dispatchBlock, i int) int

//go:noescape
func levelVec(b *dispatchBlock, i int) int

//go:noescape
func tiltVec(b *dispatchBlock, i int) int

//go:noescape
func flexVec(b *dispatchBlock, i int) int

//go:noescape
func tiltVec8(b *dispatchBlock, i int) int

//go:noescape
func flexVec8(b *dispatchBlock, i int) int

// The stage kernels of drawWeather, each its Go loop (drawWeather's
// solar and demand loop, normOf's, the logistic loop) four hours or
// draws at a time (the *Vec8 forms eight) until a group holds a lane it
// does not take or fewer than a group remain; each returns how many it
// did. sunVec also stops at the end of the day.

//go:noescape
func sunVec(irr, demand []float64, day *sunDay, hod int) int

//go:noescape
func normVec(out, cosArgs []float64, mean, stddev float64) int

//go:noescape
func logisticVec(irr, wind, cloudE, windE []float64) int

//go:noescape
func normVec8(out, cosArgs []float64, mean, stddev float64) int

//go:noescape
func logisticVec8(irr, wind, cloudE, windE []float64) int
