package rng

// normArgs3Vec is NormArgs3's loop over n draws of the three streams
// whose state st holds, one stream to a lane (rng_amd64.s). It keeps
// neither array, so a caller's buffers stay on its stack.
//
//go:noescape
func normArgs3Vec(st *[4][4]uint64, logArgs, cosArgs *[3][]float64, n int)

//go:noescape
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

//go:noescape
func xgetbv0() (eax uint32)

// VectorLanes reports how many float64 lanes the module's vector
// kernels may use on this CPU: 8, 4 or 0, as lanesFor decides from the
// CPUID and XCR0 words. It is the module's one CPU probe: this
// package's lane kernel runs where it reports 4 or more, and simgrid's
// kernels at the width it reports.
func VectorLanes() int {
	_, _, ecx1, _ := cpuid(1, 0)
	var ebx7, xcr0 uint32
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf >= 7 {
		_, ebx7, _, _ = cpuid(7, 0)
	}
	if ecx1&cpuidOSXSAVE != 0 { // else XGETBV faults
		xcr0 = xgetbv0()
	}
	return lanesFor(ecx1, ebx7, xcr0)
}

// vectorOn selects the lane kernel; the tests switch it off to run the
// Go path.
var vectorOn = VectorLanes() >= 4
