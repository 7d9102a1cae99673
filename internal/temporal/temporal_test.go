package temporal

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"carbonshift/internal/rng"
)

func almost(a, b float64) bool { return math.Abs(a-b) <= 1e-6*(1+math.Abs(a)+math.Abs(b)) }

// SweepNaive evaluates every arrival with the O(n·k) single-job code:
// the reference Sweep is held to, and the ablation benchmark's baseline.
func SweepNaive(ci []float64, length, slack, arrivals int) (Costs, error) {
	if arrivals < 1 {
		return Costs{}, fmt.Errorf("temporal: sweep needs >= 1 arrival, got %d", arrivals)
	}
	if err := checkJob(len(ci), arrivals-1, length, slack); err != nil {
		return Costs{}, err
	}
	out := Costs{
		Baseline:    make([]float64, arrivals),
		Deferred:    make([]float64, arrivals),
		Interrupted: make([]float64, arrivals),
	}
	for a := 0; a < arrivals; a++ {
		r, err := Evaluate(ci, a, length, slack)
		if err != nil {
			return Costs{}, err
		}
		out.Baseline[a] = r.Baseline
		out.Deferred[a] = r.Deferred
		out.Interrupted[a] = r.Interrupted
	}
	return out, nil
}

// ValidateMonotone checks the policy-dominance invariant on a sweep:
// interrupted <= deferred <= baseline for every arrival (within float
// tolerance). It returns the first violation, if any.
func (c Costs) ValidateMonotone() error {
	const eps = 1e-6
	for i := range c.Baseline {
		if c.Deferred[i] > c.Baseline[i]+eps {
			return fmt.Errorf("temporal: deferred %v > baseline %v at arrival %d",
				c.Deferred[i], c.Baseline[i], i)
		}
		if c.Interrupted[i] > c.Deferred[i]+eps {
			return fmt.Errorf("temporal: interrupted %v > deferred %v at arrival %d",
				c.Interrupted[i], c.Deferred[i], i)
		}
		if math.IsNaN(c.Interrupted[i]) {
			return fmt.Errorf("temporal: NaN cost at arrival %d", i)
		}
	}
	return nil
}

func TestEvaluateToyExample(t *testing.T) {
	// Mirrors the paper's Figure 2(a) idea: a job of length 2 with
	// slack 3 in a valley-shaped trace.
	ci := []float64{30, 38, 10, 4, 16, 25, 40}
	r, err := Evaluate(ci, 0, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if r.Baseline != 68 {
		t.Errorf("baseline = %v, want 68", r.Baseline)
	}
	if r.Deferred != 14 || r.Start != 2 {
		t.Errorf("deferred = %v at start %d, want 14 at 2", r.Deferred, r.Start)
	}
	if r.Interrupted != 14 {
		t.Errorf("interrupted = %v, want 14 (same hours)", r.Interrupted)
	}
	if r.DeferSaving() != 54 || r.TotalSaving() != 54 || r.InterruptSaving() != 0 {
		t.Errorf("savings = %v/%v/%v", r.DeferSaving(), r.InterruptSaving(), r.TotalSaving())
	}
}

func TestInterruptionBeatsDeferralOnSplitValleys(t *testing.T) {
	// Two separated cheap hours: contiguous placement cannot use both.
	ci := []float64{1, 50, 50, 1, 50}
	r, err := Evaluate(ci, 0, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if r.Interrupted != 2 {
		t.Errorf("interrupted = %v, want 2", r.Interrupted)
	}
	if r.Deferred != 51 {
		t.Errorf("deferred = %v, want 51", r.Deferred)
	}
}

func TestEvaluateZeroSlack(t *testing.T) {
	ci := []float64{5, 3, 9}
	r, err := Evaluate(ci, 1, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.Baseline != 12 || r.Deferred != 12 || r.Interrupted != 12 {
		t.Errorf("zero-slack result = %+v, all costs must equal baseline", r)
	}
}

func TestEvaluateErrors(t *testing.T) {
	ci := make([]float64, 10)
	cases := []struct{ arrival, length, slack int }{
		{0, 0, 0},  // zero length
		{0, 1, -1}, // negative slack
		{-1, 1, 0}, // negative arrival
		{5, 4, 2},  // horizon overrun
		{0, 11, 0}, // longer than trace
		{9, 1, 1},  // just past the end
	}
	for _, c := range cases {
		if _, err := Evaluate(ci, c.arrival, c.length, c.slack); err == nil {
			t.Errorf("Evaluate(%+v) accepted", c)
		}
	}
}

func TestSchedulePicksCheapestHours(t *testing.T) {
	ci := []float64{9, 1, 8, 2, 7, 3}
	hours, err := Schedule(ci, 0, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{1, 3, 5}
	if len(hours) != 3 {
		t.Fatalf("schedule = %v", hours)
	}
	for i := range want {
		if hours[i] != want[i] {
			t.Fatalf("schedule = %v, want %v", hours, want)
		}
	}
}

func TestScheduleError(t *testing.T) {
	if _, err := Schedule([]float64{1}, 0, 2, 0); err == nil {
		t.Fatal("overrun accepted")
	}
}

func randSeries(n int, seed uint64) []float64 {
	src := rng.New(seed)
	out := make([]float64, n)
	for i := range out {
		out[i] = src.Uniform(5, 800)
	}
	return out
}

func TestSweepMatchesNaive(t *testing.T) {
	ci := randSeries(500, 3)
	for _, tc := range []struct{ length, slack int }{
		{1, 0}, {1, 24}, {6, 24}, {24, 24}, {24, 100}, {48, 5}, {100, 250},
	} {
		arrivals := len(ci) - tc.length - tc.slack
		fast, err := Sweep(ci, tc.length, tc.slack, arrivals)
		if err != nil {
			t.Fatal(err)
		}
		slow, err := SweepNaive(ci, tc.length, tc.slack, arrivals)
		if err != nil {
			t.Fatal(err)
		}
		for a := 0; a < arrivals; a++ {
			if !almost(fast.Baseline[a], slow.Baseline[a]) {
				t.Fatalf("L=%d s=%d baseline[%d]: %v != %v", tc.length, tc.slack, a, fast.Baseline[a], slow.Baseline[a])
			}
			if !almost(fast.Deferred[a], slow.Deferred[a]) {
				t.Fatalf("L=%d s=%d deferred[%d]: %v != %v", tc.length, tc.slack, a, fast.Deferred[a], slow.Deferred[a])
			}
			if !almost(fast.Interrupted[a], slow.Interrupted[a]) {
				t.Fatalf("L=%d s=%d interrupted[%d]: %v != %v", tc.length, tc.slack, a, fast.Interrupted[a], slow.Interrupted[a])
			}
		}
	}
}

func TestQuickSweepMatchesNaive(t *testing.T) {
	f := func(seed uint64, lRaw, sRaw uint8) bool {
		n := 200
		length := int(lRaw)%40 + 1
		slack := int(sRaw) % 80
		arrivals := n - length - slack
		if arrivals < 1 {
			return true
		}
		ci := randSeries(n, seed)
		fast, err := Sweep(ci, length, slack, arrivals)
		if err != nil {
			return false
		}
		slow, _ := SweepNaive(ci, length, slack, arrivals)
		for a := 0; a < arrivals; a++ {
			if !almost(fast.Deferred[a], slow.Deferred[a]) || !almost(fast.Interrupted[a], slow.Interrupted[a]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestSweepMonotoneInvariant(t *testing.T) {
	ci := randSeries(2000, 11)
	costs, err := Sweep(ci, 24, 168, 1500)
	if err != nil {
		t.Fatal(err)
	}
	if err := costs.ValidateMonotone(); err != nil {
		t.Fatal(err)
	}
}

func TestMoreSlackNeverHurts(t *testing.T) {
	ci := randSeries(1500, 17)
	arrivals := 500
	prev, err := Sweep(ci, 24, 0, arrivals)
	if err != nil {
		t.Fatal(err)
	}
	for _, slack := range []int{24, 168, 720} {
		cur, err := Sweep(ci, 24, slack, arrivals)
		if err != nil {
			t.Fatal(err)
		}
		for a := 0; a < arrivals; a++ {
			if cur.Deferred[a] > prev.Deferred[a]+1e-6 {
				t.Fatalf("slack %d raised deferred cost at %d", slack, a)
			}
			if cur.Interrupted[a] > prev.Interrupted[a]+1e-6 {
				t.Fatalf("slack %d raised interrupted cost at %d", slack, a)
			}
		}
		prev = cur
	}
}

func TestSweepErrors(t *testing.T) {
	ci := make([]float64, 10)
	if _, err := Sweep(ci, 1, 0, 0); err == nil {
		t.Error("zero arrivals accepted")
	}
	if _, err := Sweep(ci, 5, 5, 2); err == nil {
		t.Error("overrunning sweep accepted")
	}
	if _, err := SweepNaive(ci, 5, 5, 2); err == nil {
		t.Error("overrunning naive sweep accepted")
	}
	if _, err := SweepNaive(ci, 1, 0, 0); err == nil {
		t.Error("zero arrivals accepted by naive sweep")
	}
}

func TestReduce(t *testing.T) {
	c := Costs{
		Baseline:    []float64{100, 200},
		Deferred:    []float64{80, 120},
		Interrupted: []float64{70, 100},
	}
	ms := c.Reduce()
	if !almost(ms.Baseline, 150) || !almost(ms.DeferSaving, 50) || !almost(ms.InterruptSaving, 15) {
		t.Fatalf("Reduce = %+v", ms)
	}
	if got := (Costs{}).Reduce(); got != (MeanSavings{}) {
		t.Fatalf("empty Reduce = %+v", got)
	}
}

func TestValidateMonotoneCatchesViolations(t *testing.T) {
	c := Costs{
		Baseline:    []float64{10},
		Deferred:    []float64{11},
		Interrupted: []float64{9},
	}
	if err := c.ValidateMonotone(); err == nil {
		t.Fatal("deferred > baseline not caught")
	}
	c = Costs{
		Baseline:    []float64{10},
		Deferred:    []float64{8},
		Interrupted: []float64{9},
	}
	if err := c.ValidateMonotone(); err == nil {
		t.Fatal("interrupted > deferred not caught")
	}
}

func TestRankTreeKSmallest(t *testing.T) {
	vals := []float64{5, 3, 8, 3, 1}
	tr := newRankTree(vals)
	for i := range vals {
		tr.add(i)
	}
	if got := tr.kSmallestSum(3); !almost(got, 7) { // 1+3+3
		t.Fatalf("kSmallestSum(3) = %v, want 7", got)
	}
	tr.remove(4)                                     // drop the 1
	if got := tr.kSmallestSum(3); !almost(got, 11) { // 3+3+5
		t.Fatalf("after removal kSmallestSum(3) = %v, want 11", got)
	}
	if got := tr.kSmallestSum(0); got != 0 {
		t.Fatalf("kSmallestSum(0) = %v", got)
	}

	// A universe of four distinct values, 150 copies of each on average:
	// ranks must run in (value, index) order — equal values in the order
	// they appear — and a window sliding over the duplicates must keep
	// summing the right k. The values are halves, so every sum is exact.
	src := rng.New(11)
	vals = make([]float64, 600)
	for i := range vals {
		vals[i] = []float64{1, 2, 2.5, 7}[src.Intn(4)]
	}
	tr = newRankTree(vals)
	byRank := make([]int, len(vals)+1)
	for i, r := range tr.rank {
		if r < 1 || r > len(vals) || byRank[r] != 0 {
			t.Fatalf("rank[%d] = %d is out of range or taken", i, r)
		}
		byRank[r] = i + 1
	}
	for r := 2; r <= len(vals); r++ {
		a, b := byRank[r-1]-1, byRank[r]-1
		if vals[a] > vals[b] || (vals[a] == vals[b] && a > b) {
			t.Fatalf("ranks %d and %d hold (%v, #%d) and (%v, #%d): not in (value, index) order",
				r-1, r, vals[a], a, vals[b], b)
		}
	}
	const window = 48
	for i := 0; i < window; i++ {
		tr.add(i)
	}
	for start := 0; ; start++ {
		sorted := slices.Sorted(slices.Values(vals[start : start+window]))
		for _, k := range []int{1, 7, 24, window} {
			var want float64
			for _, v := range sorted[:k] {
				want += v
			}
			if got := tr.kSmallestSum(k); got != want {
				t.Fatalf("window at %d: kSmallestSum(%d) = %v, want %v", start, k, got, want)
			}
		}
		if start+window == len(vals) {
			break
		}
		tr.remove(start)
		tr.add(start + window)
	}
}

func TestRankTreePanicsWhenUnderfull(t *testing.T) {
	tr := newRankTree([]float64{1, 2})
	tr.add(0)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for k > present elements")
		}
	}()
	tr.kSmallestSum(2)
}

func BenchmarkSweepYearInterruptible(b *testing.B) {
	ci := randSeries(8760+8760+168, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Sweep(ci, 24, 8760, 8760); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSweepNaiveSmall(b *testing.B) {
	ci := randSeries(2000, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SweepNaive(ci, 24, 168, 1000); err != nil {
			b.Fatal(err)
		}
	}
}

// Arrival sweeps: the incremental Fenwick/deque sweep vs re-evaluating
// every arrival from scratch, over one year of diurnal intensities.
func yearSeries() []float64 {
	src := rng.New(1)
	ci := make([]float64, 8760)
	for i := range ci {
		ci[i] = 300 + 120*math.Sin(2*math.Pi*float64(i)/24) + src.Uniform(-30, 30)
	}
	return ci
}

func BenchmarkAblation_SweepIncremental(b *testing.B) {
	ci := yearSeries()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Sweep(ci, 24, 168, 4000); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblation_SweepNaive(b *testing.B) {
	ci := yearSeries()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SweepNaive(ci, 24, 168, 4000); err != nil {
			b.Fatal(err)
		}
	}
}
