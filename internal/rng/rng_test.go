package rng

import (
	"math"
	"runtime"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if av, bv := a.Uint64(), b.Uint64(); av != bv {
			t.Fatalf("streams diverged at %d: %d != %d", i, av, bv)
		}
	}
	// The stream is this package's to keep, whatever shape the step
	// takes: New(1)'s first outputs are pinned.
	r := New(1)
	for i, want := range []uint64{0xb3f2af6d0fc710c5, 0x853b559647364cea, 0x92f89756082a4514, 0x642e1c7bc266a3a7} {
		if got := r.Uint64(); got != want {
			t.Fatalf("New(1) output %d: %#x, want %#x", i, got, want)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical values", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	child := parent.Split()
	// The child stream must not simply mirror the parent stream.
	same := 0
	for i := 0; i < 100; i++ {
		if parent.Uint64() == child.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("parent and child streams overlap in %d/100 draws", same)
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(11)
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("uniform mean = %v, want ~0.5", mean)
	}
}

func TestIntnRange(t *testing.T) {
	r := New(5)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Fatalf("Intn(7) covered only %d values", len(seen))
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestNormMoments(t *testing.T) {
	r := New(9)
	const n = 100000
	var sum, sq float64
	for i := 0; i < n; i++ {
		v := r.Norm(10, 3)
		sum += v
		sq += v * v
	}
	mean := sum / n
	std := math.Sqrt(sq/n - mean*mean)
	if math.Abs(mean-10) > 0.1 {
		t.Errorf("normal mean = %v, want ~10", mean)
	}
	if math.Abs(std-3) > 0.1 {
		t.Errorf("normal stddev = %v, want ~3", std)
	}
}

func TestUniformRange(t *testing.T) {
	r := New(17)
	for i := 0; i < 10000; i++ {
		v := r.Uniform(-3, 5)
		if v < -3 || v >= 5 {
			t.Fatalf("Uniform(-3,5) = %v", v)
		}
	}
}

func TestPickRespectsZeroWeights(t *testing.T) {
	r := New(23)
	ws := []float64{0, 1, 0, 2}
	for i := 0; i < 1000; i++ {
		idx := r.Pick(ws)
		if idx != 1 && idx != 3 {
			t.Fatalf("Pick chose zero-weight index %d", idx)
		}
	}
}

// Pick refuses weights it cannot draw in proportion to: a negative, NaN
// or infinite one, or finite ones whose sum overflows, would otherwise
// return the last index every time.
func TestPickPanicsOnBadWeights(t *testing.T) {
	for _, ws := range [][]float64{
		{1, -1, 1}, {1, math.NaN(), 1}, {1, math.Inf(1), 1}, {1, math.Inf(-1), 1},
		{math.MaxFloat64, math.MaxFloat64},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Pick(%v) did not panic", ws)
				}
			}()
			New(1).Pick(ws)
		}()
	}
}

func TestPickDistribution(t *testing.T) {
	r := New(29)
	ws := []float64{1, 3}
	counts := [2]int{}
	const n = 100000
	for i := 0; i < n; i++ {
		counts[r.Pick(ws)]++
	}
	frac := float64(counts[1]) / n
	if math.Abs(frac-0.75) > 0.01 {
		t.Fatalf("weighted pick fraction = %v, want ~0.75", frac)
	}
}

func TestQuickFloat64Bounds(t *testing.T) {
	f := func(seed uint64) bool {
		r := New(seed)
		for i := 0; i < 64; i++ {
			v := r.Float64()
			if v < 0 || v >= 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkNorm(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Norm(0, 1)
	}
}

func TestSplitNMatchesSequentialSplits(t *testing.T) {
	a, b := New(9), New(9)
	children := a.SplitN(5)
	if len(children) != 5 {
		t.Fatalf("SplitN returned %d children", len(children))
	}
	for i := 0; i < 5; i++ {
		want := b.Split()
		got := children[i]
		for j := 0; j < 16; j++ {
			if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("child %d sample %d: %d vs %d", i, j, g, w)
			}
		}
	}
}

func TestSplitNChildrenIndependent(t *testing.T) {
	children := New(10).SplitN(3)
	// Distinct children must not share a stream.
	if children[0].Uint64() == children[1].Uint64() && children[1].Uint64() == children[2].Uint64() {
		t.Fatal("SplitN children look identical")
	}
	if len(New(10).SplitN(0)) != 0 {
		t.Fatal("SplitN(0) not empty")
	}
}

// TestNormArgsBatchMatchesNormArgs holds NormArgsBatch to NormArgs draw
// for draw, in batches of every length up to 64, the stream left where
// NormArgs would leave it.
func TestNormArgsBatchMatchesNormArgs(t *testing.T) {
	batch, serial := New(0xdeadbeef), New(0xdeadbeef)
	logArgs, cosArgs := make([]float64, 64), make([]float64, 64)
	for n := 0; n <= len(logArgs); n++ {
		batch.NormArgsBatch(logArgs[:n], cosArgs)
		for i := range n {
			wantLog, wantCos := serial.NormArgs()
			if math.Float64bits(logArgs[i]) != math.Float64bits(wantLog) ||
				math.Float64bits(cosArgs[i]) != math.Float64bits(wantCos) {
				t.Fatalf("batch of %d, draw %d: (%x, %x), NormArgs gives (%x, %x)",
					n, i, logArgs[i], cosArgs[i], wantLog, wantCos)
			}
		}
	}
	if batch.Uint64() != serial.Uint64() {
		t.Fatal("NormArgsBatch left its stream elsewhere than NormArgs does")
	}
	if a, b := New(0xdeadbeef).NormArgs(); a != 0x1.d5555ddac5944p-03 || b != 0x1.3fb1cadc3c69ep+01 {
		t.Fatalf("first NormArgs of New(0xdeadbeef) = (%x, %x)", a, b)
	}
}

// bothPaths runs f with the lane kernel on, where the CPU has it, and
// with it off.
func bothPaths(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	saved := vectorOn
	t.Cleanup(func() { vectorOn = saved })
	for _, on := range []bool{true, false} {
		name := "scalar"
		if on {
			name = "vector"
			if !saved {
				t.Log("no AVX2+FMA: the vector path is not available here")
				continue
			}
		}
		vectorOn = on
		t.Run(name, f)
	}
}

// maxBatch is twice simgrid's 512-hour block, the longest batch its
// weather stage draws.
const maxBatch = 1024

// checkNormArgs3 draws batches of each length in ns from three streams
// split from seed through NormArgs3, and holds every draw to NormArgs on
// a second split of the same seed, then each stream's next output to
// where NormArgs left its twin.
func checkNormArgs3(t testing.TB, seed uint64, ns ...int) {
	t.Helper()
	a, b := New(seed), New(seed)
	srcs := [3]*Source{a.Split(), a.Split(), a.Split()}
	refs := [3]*Source{b.Split(), b.Split(), b.Split()}
	var logArgs, cosArgs [3][]float64
	for k := range logArgs {
		logArgs[k], cosArgs[k] = make([]float64, maxBatch), make([]float64, maxBatch)
	}
	for _, n := range ns {
		NormArgs3(srcs, [3][]float64{logArgs[0][:n], logArgs[1], logArgs[2]}, cosArgs)
		for k, ref := range refs {
			for i := range n {
				wantLog, wantCos := ref.NormArgs()
				if math.Float64bits(logArgs[k][i]) != math.Float64bits(wantLog) ||
					math.Float64bits(cosArgs[k][i]) != math.Float64bits(wantCos) {
					t.Fatalf("seed %d, batch of %d, stream %d, draw %d: (%x, %x), NormArgs gives (%x, %x)",
						seed, n, k, i, logArgs[k][i], cosArgs[k][i], wantLog, wantCos)
				}
			}
		}
	}
	for k := range srcs {
		if srcs[k].Uint64() != refs[k].Uint64() {
			t.Fatalf("seed %d: NormArgs3 left stream %d elsewhere than NormArgs does", seed, k)
		}
	}
}

// TestNormArgs3MatchesNormArgs holds NormArgs3 to NormArgs draw for
// draw on both paths: three seeds, every batch length up to maxBatch,
// each stream left where its own loop of NormArgs calls would leave it.
func TestNormArgs3MatchesNormArgs(t *testing.T) {
	ns := make([]int, maxBatch+1)
	for n := range ns {
		ns[n] = n
	}
	bothPaths(t, func(t *testing.T) {
		for _, seed := range []uint64{1, 0xdeadbeef, 1 << 63} {
			checkNormArgs3(t, seed, ns...)
		}
	})
	defer func() {
		if recover() == nil {
			t.Error("NormArgs3 drew from one stream twice without a panic")
		}
	}()
	r := New(1)
	NormArgs3([3]*Source{r, New(2), r}, [3][]float64{}, [3][]float64{})
}

// FuzzNormArgs3 runs NormArgs3 at a fuzzed seed over three batches of
// fuzzed lengths up to maxBatch, on both paths.
func FuzzNormArgs3(f *testing.F) {
	f.Add(uint64(7), uint16(0), uint16(1), uint16(maxBatch))
	f.Add(uint64(1<<40+3), uint16(511), uint16(513), uint16(4))
	f.Fuzz(func(t *testing.T, seed uint64, n0, n1, n2 uint16) {
		bothPaths(t, func(t *testing.T) {
			checkNormArgs3(t, seed, int(n0)%(maxBatch+1), int(n1)%(maxBatch+1), int(n2)%(maxBatch+1))
		})
	})
}

// BenchmarkNormArgs3 draws one 512-draw block of three streams in one
// NormArgs3 call; BenchmarkNormArgsBatch3 draws it stream by stream.
func BenchmarkNormArgs3(b *testing.B) {
	src := New(1)
	srcs := [3]*Source{src.Split(), src.Split(), src.Split()}
	var logArgs, cosArgs [3][]float64
	for k := range logArgs {
		logArgs[k], cosArgs[k] = make([]float64, maxBatch/2), make([]float64, maxBatch/2)
	}
	for b.Loop() {
		NormArgs3(srcs, logArgs, cosArgs)
	}
}

func BenchmarkNormArgsBatch3(b *testing.B) {
	src := New(1)
	srcs := [3]*Source{src.Split(), src.Split(), src.Split()}
	var logArgs, cosArgs [3][]float64
	for k := range logArgs {
		logArgs[k], cosArgs[k] = make([]float64, maxBatch/2), make([]float64, maxBatch/2)
	}
	for b.Loop() {
		for k, r := range srcs {
			r.NormArgsBatch(logArgs[k], cosArgs[k])
		}
	}
}

// TestLanesFor holds the probe's decision to its table: with every bit
// the kernels need, 8 lanes; without any one AVX-512 bit or ZMM state
// bit, 4; without any one AVX2 bit or YMM state bit, none. A CPU
// without OSXSAVE reports XCR0 as 0, one without leaf 7 reports its
// EBX as 0. VectorLanes itself reports 0 off amd64.
func TestLanesFor(t *testing.T) {
	const (
		ecx1 = cpuidFMA | cpuidOSXSAVE | cpuidAVX
		ebx7 = cpuidAVX2 | cpuidAVX512F | cpuidAVX512DQ | cpuidAVX512VL
		xcr0 = xcr0YMM | xcr0ZMM
	)
	for _, c := range []struct {
		name             string
		ecx1, ebx7, xcr0 uint32
		want             int
	}{
		{"all", ecx1, ebx7, xcr0, 8},
		{"no AVX512F", ecx1, ebx7 &^ cpuidAVX512F, xcr0, 4},
		{"no AVX512DQ", ecx1, ebx7 &^ cpuidAVX512DQ, xcr0, 4},
		{"no AVX512VL", ecx1, ebx7 &^ cpuidAVX512VL, xcr0, 4},
		{"no opmask state", ecx1, ebx7, xcr0 &^ (1 << 5), 4},
		{"no ZMM_Hi256 state", ecx1, ebx7, xcr0 &^ (1 << 6), 4},
		{"no Hi16_ZMM state", ecx1, ebx7, xcr0 &^ (1 << 7), 4},
		{"AVX2 only", ecx1, cpuidAVX2, xcr0YMM, 4},
		{"no AVX2", ecx1, ebx7 &^ cpuidAVX2, xcr0, 0},
		{"no FMA", ecx1 &^ cpuidFMA, ebx7, xcr0, 0},
		{"no AVX", ecx1 &^ cpuidAVX, ebx7, xcr0, 0},
		{"no OSXSAVE", ecx1 &^ cpuidOSXSAVE, ebx7, 0, 0},
		{"no YMM state", ecx1, ebx7, xcr0 &^ (1 << 2), 0},
		{"no XMM state", ecx1, ebx7, xcr0 &^ (1 << 1), 0},
		{"no leaf 7", ecx1, 0, xcr0, 0},
	} {
		if got := lanesFor(c.ecx1, c.ebx7, c.xcr0); got != c.want {
			t.Errorf("%s: lanesFor(%#x, %#x, %#x) = %d, want %d", c.name, c.ecx1, c.ebx7, c.xcr0, got, c.want)
		}
	}
	got := VectorLanes()
	if runtime.GOARCH != "amd64" && got != 0 {
		t.Errorf("VectorLanes on %s = %d, want 0", runtime.GOARCH, got)
	}
	t.Logf("this CPU: %d lanes", got)
}
