package simgrid

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

//go:noescape
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

//go:noescape
func xgetbv0() (eax uint32)

// hasAVX2FMA reports whether the CPU has AVX2 and FMA and the operating
// system saves the YMM registers across context switches.
func hasAVX2FMA() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const fma, osxsave, avx = 1 << 12, 1 << 27, 1 << 28
	if ecx1&(fma|osxsave|avx) != fma|osxsave|avx {
		return false
	}
	if xgetbv0()&6 != 6 { // XMM and YMM state
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	const avx2 = 1 << 5
	return ebx7&avx2 != 0
}

// vectorOn selects the vector kernels; the tests switch it off to run
// the scalar path.
var vectorOn = hasAVX2FMA()
