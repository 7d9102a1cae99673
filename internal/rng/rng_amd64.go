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

// HasAVX2FMA reports whether the CPU has AVX2 and FMA and the operating
// system saves the YMM registers across context switches. It is the
// module's one CPU probe: this package's lane kernel and simgrid's
// vector kernels run where it holds.
func HasAVX2FMA() bool {
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

// vectorOn selects the lane kernel; the tests switch it off to run the
// Go path.
var vectorOn = HasAVX2FMA()
