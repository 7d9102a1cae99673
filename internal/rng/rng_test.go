package rng

import (
	"math"
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
