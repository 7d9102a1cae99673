//go:build !amd64

package simgrid

// Other ports have no vector kernels (lanes is 0): kernels.go's loops
// call math's own functions for every element, and every stage runs its
// Go loop.

func expVec(xs []float64) int                                   { return 0 }
func logVec(xs []float64) int                                   { return 0 }
func cosVec(xs []float64) int                                   { return 0 }
func driftVec(b *dispatchBlock, i int) int                      { return 0 }
func levelVec(b *dispatchBlock, i int) int                      { return 0 }
func tiltVec(b *dispatchBlock, i int) int                       { return 0 }
func flexVec(b *dispatchBlock, i int) int                       { return 0 }
func sunVec(irr, demand []float64, day *sunDay, hod int) int    { return 0 }
func normVec(out, cosArgs []float64, mean, stddev float64) int  { return 0 }
func logisticVec(irr, wind, cloudE, windE []float64) int        { return 0 }
func expVec8(xs []float64) int                                  { return 0 }
func logVec8(xs []float64) int                                  { return 0 }
func cosVec8(xs []float64) int                                  { return 0 }
func tiltVec8(b *dispatchBlock, i int) int                      { return 0 }
func flexVec8(b *dispatchBlock, i int) int                      { return 0 }
func normVec8(out, cosArgs []float64, mean, stddev float64) int { return 0 }
func logisticVec8(irr, wind, cloudE, windE []float64) int       { return 0 }
