package temporal

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"carbonshift/internal/rng"
	"carbonshift/internal/stats"
)

func almost(a, b float64) bool { return math.Abs(a-b) <= 1e-6*(1+math.Abs(a)+math.Abs(b)) }

// Result holds the carbon cost of one job under the three policies.
type Result struct {
	// Baseline is the no-flexibility cost, in g·CO₂eq.
	Baseline float64
	// Deferred is the optimal deferred (contiguous) cost.
	Deferred float64
	// Interrupted is the optimal interruptible cost. It never exceeds
	// Deferred, which never exceeds Baseline.
	Interrupted float64
	// Start is the deferred policy's chosen start hour.
	Start int
}

// DeferSaving returns the absolute saving from deferral alone.
func (r Result) DeferSaving() float64 { return r.Baseline - r.Deferred }

// InterruptSaving returns the additional saving from interruption on
// top of deferral.
func (r Result) InterruptSaving() float64 { return r.Deferred - r.Interrupted }

// TotalSaving returns the saving of the combined policy vs baseline.
func (r Result) TotalSaving() float64 { return r.Baseline - r.Interrupted }

// Evaluate computes all three policy costs for a single job on the
// hourly intensity series ci: the single-job reference SweepNaive is
// built on.
func Evaluate(ci []float64, arrival, length, slack int) (Result, error) {
	if err := checkJob(len(ci), arrival, length, slack); err != nil {
		return Result{}, err
	}
	horizon := ci[arrival : arrival+length+slack]
	var baseline float64
	for _, v := range horizon[:length] {
		baseline += v
	}
	start, deferred := stats.MinWindowSum(horizon, length)
	interrupted := stats.SumBottomK(horizon, length)
	return Result{
		Baseline:    baseline,
		Deferred:    deferred,
		Interrupted: interrupted,
		Start:       arrival + start,
	}, nil
}

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

// refSweep is the exact reference Plan.Sweep is held to: one sweep
// cell on its own, as it was computed before plans shared their sort —
// prefix sums over the whole series, and a rank tree over the hours the
// cell touches, sorted for that cell alone. SweepNaive is the semantic
// reference; this one fixes every summation order, so Plan.Sweep must
// equal it bit for bit.
func refSweep(ci []float64, length, slack, arrivals int) (Costs, error) {
	if arrivals < 1 {
		return Costs{}, fmt.Errorf("temporal: sweep needs >= 1 arrival, got %d", arrivals)
	}
	if err := checkJob(len(ci), arrivals-1, length, slack); err != nil {
		return Costs{}, err
	}
	prefix := make([]float64, len(ci)+1)
	for i, v := range ci {
		prefix[i+1] = prefix[i] + v
	}
	winSum := func(s int) float64 { return prefix[s+length] - prefix[s] }
	c := Costs{
		Baseline:    make([]float64, arrivals),
		Deferred:    make([]float64, arrivals),
		Interrupted: make([]float64, arrivals),
	}
	for a := range c.Baseline {
		c.Baseline[a] = winSum(a)
	}

	numStarts := len(ci) - length + 1
	var deque []int
	push := func(s int) {
		for len(deque) > 0 && winSum(deque[len(deque)-1]) >= winSum(s) {
			deque = deque[:len(deque)-1]
		}
		deque = append(deque, s)
	}
	for s := 0; s <= slack && s < numStarts; s++ {
		push(s)
	}
	for a := range c.Deferred {
		for len(deque) > 0 && deque[0] < a {
			deque = deque[1:]
		}
		c.Deferred[a] = winSum(deque[0])
		if next := a + 1 + slack; next < numStarts {
			push(next)
		}
	}

	window := length + slack
	tree := refRankTree(ci[:min(arrivals+window-1, len(ci))])
	for h := 0; h < window; h++ {
		tree.add(h)
	}
	c.Interrupted[0] = tree.kSmallestSum(length)
	for a := 1; a < arrivals; a++ {
		tree.remove(a - 1)
		tree.add(a + window - 1)
		c.Interrupted[a] = tree.kSmallestSum(length)
	}
	return c, nil
}

// refRankTree sorts vals on its own and ranks every index by (value,
// index).
func refRankTree(vals []float64) *rankTree {
	n := len(vals)
	t := &rankTree{
		rank:  make([]int, n),
		valAt: make([]float64, n+1),
		node:  make([]fenwickNode, n+1),
		size:  n,
		vals:  vals,
	}
	for r, i := range stats.BottomKIndices(vals, n) {
		t.rank[i] = r + 1
		t.valAt[r+1] = vals[i]
	}
	t.top = 1
	for t.top*2 <= n {
		t.top *= 2
	}
	return t
}

// newRankTree is a plan's tree over all of vals.
func newRankTree(vals []float64) *rankTree { return NewPlan(vals).rankTree(len(vals)) }

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

// tiedSeries draws n hours where ties are common: zeros, negative
// zeros, a few values that repeat, and uniform draws whose sums round,
// so a changed summation order changes bits.
func tiedSeries(src *rng.Source, n int) []float64 {
	repeats := []float64{0, math.Copysign(0, -1), 37.25, src.Uniform(5, 800), src.Uniform(5, 800)}
	out := make([]float64, n)
	for i := range out {
		if src.Intn(3) == 0 {
			out[i] = repeats[src.Intn(len(repeats))]
		} else {
			out[i] = src.Uniform(5, 800)
		}
	}
	return out
}

// checkPlanCells builds one plan over all of ci and requires each
// drawn cell's Plan.Sweep to equal refSweep on ci by bits. Every cell
// needs fewer hours than the plan holds, so the plan's order carries
// hours the cell must leave out.
func checkPlanCells(t *testing.T, src *rng.Source, ci []float64, cells int) {
	t.Helper()
	plan := NewPlan(ci)
	for c := 0; c < cells; c++ {
		length := 1 + src.Intn(len(ci)/3)
		slack := src.Intn(len(ci) - length - 1)
		arrivals := 1 + src.Intn(len(ci)-length-slack-1)
		got, err := plan.Sweep(length, slack, arrivals)
		if err != nil {
			t.Fatal(err)
		}
		want, err := refSweep(ci, length, slack, arrivals)
		if err != nil {
			t.Fatal(err)
		}
		for _, pol := range []struct {
			name      string
			got, want []float64
		}{
			{"baseline", got.Baseline, want.Baseline},
			{"deferred", got.Deferred, want.Deferred},
			{"interrupted", got.Interrupted, want.Interrupted},
		} {
			if len(pol.got) != arrivals {
				t.Fatalf("%d hours, L=%d s=%d arrivals=%d: %d %s costs", len(ci), length, slack, arrivals, len(pol.got), pol.name)
			}
			for a := range pol.got {
				if math.Float64bits(pol.got[a]) != math.Float64bits(pol.want[a]) {
					t.Fatalf("%d hours, L=%d s=%d arrivals=%d: %s[%d] = %v, reference %v",
						len(ci), length, slack, arrivals, pol.name, a, pol.got[a], pol.want[a])
				}
			}
		}
	}
}

// TestPlanMatchesReference holds one plan per series to the per-cell
// reference over many cells, bit for bit.
func TestPlanMatchesReference(t *testing.T) {
	src := rng.New(63)
	for i := 0; i < 150; i++ {
		checkPlanCells(t, src, tiedSeries(src, 8+src.Intn(400)), 6)
	}
	// Sweep is a plan over exactly the hours it needs.
	ci := tiedSeries(src, 500)
	got, err := Sweep(ci, 24, 100, 300)
	if err != nil {
		t.Fatal(err)
	}
	want, err := refSweep(ci, 24, 100, 300)
	if err != nil {
		t.Fatal(err)
	}
	for a := range want.Interrupted {
		if math.Float64bits(got.Baseline[a]) != math.Float64bits(want.Baseline[a]) ||
			math.Float64bits(got.Deferred[a]) != math.Float64bits(want.Deferred[a]) ||
			math.Float64bits(got.Interrupted[a]) != math.Float64bits(want.Interrupted[a]) {
			t.Fatalf("Sweep differs from the reference at arrival %d", a)
		}
	}
}

func TestPlanSweepErrors(t *testing.T) {
	plan := NewPlan(make([]float64, 10))
	for _, c := range []struct{ length, slack, arrivals int }{
		{1, 0, 0}, {0, 1, 1}, {1, -1, 1}, {5, 5, 2}, {6, 5, 1}, {10, 0, 2},
	} {
		if _, err := plan.Sweep(c.length, c.slack, c.arrivals); err == nil {
			t.Errorf("Plan.Sweep(%+v) accepted", c)
		}
	}
	if _, err := plan.Sweep(10, 0, 1); err != nil {
		t.Errorf("a sweep needing every hour of the plan refused: %v", err)
	}
}

// FuzzPlanMatchesReference draws a tied series from each byte (zeros,
// negative zeros, repeats or fresh values) and cells from the seed.
func FuzzPlanMatchesReference(f *testing.F) {
	f.Add(uint64(1), []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	f.Add(uint64(7), []byte("\x00\x01\x00\x01\x02\x02\x02\x0a\x12\x1a\xff\xfe\x00\x01\x02\x03\x04"))
	f.Fuzz(func(t *testing.T, seed uint64, raw []byte) {
		if len(raw) < 4 || len(raw) > 1024 {
			t.Skip()
		}
		src := rng.New(seed)
		repeats := []float64{37.25, src.Uniform(5, 800), src.Uniform(5, 800), src.Uniform(5, 800)}
		ci := make([]float64, len(raw))
		for i, b := range raw {
			switch b & 7 {
			case 0:
				ci[i] = 0
			case 1:
				ci[i] = math.Copysign(0, -1)
			case 2, 3:
				ci[i] = repeats[b>>3&3]
			default:
				ci[i] = src.Uniform(5, 800)
			}
		}
		checkPlanCells(t, src, ci, 4)
	})
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
