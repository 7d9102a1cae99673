// Package temporal implements the paper's temporal workload-shifting
// policies (§3.2.1, §5.2) over hourly carbon-intensity series.
//
// A batch job of length L hours arriving at hour a with slack s may run
// anywhere inside the horizon [a, a+L+s):
//
//   - Baseline (non-deferrable): run immediately; cost is the sum of
//     the L intensities from a.
//   - Deferrable: choose the contiguous L-hour window with minimum
//     cumulative intensity inside the horizon (the k-element
//     minimum-sum subarray).
//   - Interruptible (and deferrable): run during the L cheapest hours
//     of the horizon, contiguous or not (the k smallest elements).
//
// Jobs draw 1 kW, so costs are directly in g·CO₂eq. The paper assumes
// clairvoyance and zero suspend/resume and defer overheads to obtain
// upper bounds; so does this package.
//
// The package evaluates full arrival sweeps ("all 8760 potential start
// times over a year") with asymptotically efficient algorithms: prefix
// sums for baselines, a monotonic-deque sliding-window minimum for
// deferral, and a Fenwick-tree order-statistic window for interruption,
// so a whole sweep costs O(n log n) instead of the naive O(n²). A Plan
// holds what every sweep over one series shares — the prefix sums and
// the hours sorted by value — so a caller with many (length, slack)
// cells on one region pays one sort per region, then O(n) to rank each
// cell's hours and O(n log n) Fenwick work per cell.
package temporal

import (
	"fmt"

	"carbonshift/internal/stats"
)

func checkJob(n, arrival, length, slack int) error {
	if length < 1 {
		return fmt.Errorf("temporal: job length %d must be >= 1 hour", length)
	}
	if slack < 0 {
		return fmt.Errorf("temporal: negative slack %d", slack)
	}
	if arrival < 0 {
		return fmt.Errorf("temporal: negative arrival %d", arrival)
	}
	if arrival+length+slack > n {
		return fmt.Errorf("temporal: job horizon [%d, %d) overruns trace of %d hours",
			arrival, arrival+length+slack, n)
	}
	return nil
}

// Costs bundles the per-arrival cost series of a sweep: index i is the
// cost of a job arriving at hour i.
type Costs struct {
	Baseline    []float64
	Deferred    []float64
	Interrupted []float64
}

// checkSweep validates a sweep of n hours: at least one arrival, and
// the final arrival's horizon inside them.
func checkSweep(n, length, slack, arrivals int) error {
	if arrivals < 1 {
		return fmt.Errorf("temporal: sweep needs >= 1 arrival, got %d", arrivals)
	}
	return checkJob(n, arrivals-1, length, slack)
}

// Sweep computes the three policy costs for every arrival hour in
// [0, arrivals). The horizon of the final arrival must fit in the
// trace: arrivals + length + slack <= len(ci). It is the one cell of a
// plan over the hours it reads.
func Sweep(ci []float64, length, slack, arrivals int) (Costs, error) {
	if err := checkSweep(len(ci), length, slack, arrivals); err != nil {
		return Costs{}, err
	}
	return NewPlan(ci[:Needed(length, slack, arrivals)]).Sweep(length, slack, arrivals)
}

// Needed returns how many leading hours of a series a sweep reads: the
// horizon of its final arrival ends there.
func Needed(length, slack, arrivals int) int { return arrivals + length + slack - 1 }

// Plan is one series prepared for every sweep over a prefix of it: its
// running sums, and its hours ordered by value, then hour. NewPlan
// sorts once; each Sweep filters that order down to the hours it
// touches, which ranks them exactly as sorting those hours would.
type Plan struct {
	ci     []float64
	prefix []float64 // prefix[i] is the sum of ci[:i]
	order  []int     // every hour of ci, by (value, hour)
}

// NewPlan prepares ci, which the plan keeps and reads but never
// writes. Its values must be ordered (no NaN), as validated traces
// are.
func NewPlan(ci []float64) *Plan {
	prefix := make([]float64, len(ci)+1)
	for i, v := range ci {
		prefix[i+1] = prefix[i] + v
	}
	return &Plan{ci: ci, prefix: prefix, order: stats.BottomKIndices(ci, len(ci))}
}

// Sweep computes the three policy costs for every arrival hour in
// [0, arrivals): bit for bit the package-level Sweep's on the plan's
// series. The plan must hold the Needed(length, slack, arrivals) hours
// the sweep reads.
func (p *Plan) Sweep(length, slack, arrivals int) (Costs, error) {
	if err := checkSweep(len(p.ci), length, slack, arrivals); err != nil {
		return Costs{}, err
	}
	needed := Needed(length, slack, arrivals)
	winSum := func(s int) float64 { return p.prefix[s+length] - p.prefix[s] }
	c := Costs{
		Baseline:    make([]float64, arrivals),
		Deferred:    make([]float64, arrivals),
		Interrupted: make([]float64, arrivals),
	}

	// Baseline: the window from the arrival itself.
	for a := range c.Baseline {
		c.Baseline[a] = winSum(a)
	}

	// Deferral: the cost at arrival a is min over start s in
	// [a, a+slack] of the window at s, kept by a monotonic deque of
	// candidate starts with increasing window sums.
	deque := make([]int, 0, slack+1)
	push := func(s int) {
		for len(deque) > 0 && winSum(deque[len(deque)-1]) >= winSum(s) {
			deque = deque[:len(deque)-1]
		}
		deque = append(deque, s)
	}
	for s := 0; s <= slack; s++ {
		push(s)
	}
	for a := range c.Deferred {
		for deque[0] < a {
			deque = deque[1:]
		}
		c.Deferred[a] = winSum(deque[0])
		if a+1 < arrivals {
			push(a + 1 + slack) // the start entering the next arrival's range
		}
	}

	// Interruption: the `length` cheapest hours of each sliding
	// horizon of length+slack hours, from a Fenwick tree over the ranks
	// of the hours the sweep touches.
	window := length + slack
	tree := p.rankTree(needed)
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

// rankTree is a Fenwick (binary indexed) tree over the ranks of a fixed
// value universe, tracking the count and sum of currently present
// elements per rank. Every element is present at most once, so a rank
// holds a count of 0 or 1. It supports O(log n) insertion, removal, and
// "sum of the k smallest present values" queries.
type rankTree struct {
	// rank[i] is the 1-based rank of element i in the sorted universe.
	rank []int
	// valAt[r] is the value with rank r (1-based).
	valAt []float64
	// node[r] is Fenwick node r (1-based): the count and sum of its
	// ranks, side by side so one update touches one cache line a level.
	node []fenwickNode
	size int // number of ranks
	top  int // largest power of two <= size, for the descent
	vals []float64
}

type fenwickNode struct {
	sum float64
	cnt int
}

// rankTree returns an empty tree over the plan's first n hours, ranked
// among themselves: the plan's order with every later hour left out.
func (p *Plan) rankTree(n int) *rankTree {
	t := &rankTree{
		rank:  make([]int, n),
		valAt: make([]float64, n+1),
		node:  make([]fenwickNode, n+1),
		size:  n,
		vals:  p.ci[:n],
	}
	r := 0
	for _, i := range p.order {
		if i < n {
			r++
			t.rank[i] = r
			t.valAt[r] = p.ci[i]
		}
	}
	t.top = 1
	for t.top*2 <= n {
		t.top *= 2
	}
	return t
}

func (t *rankTree) add(i int)    { t.update(t.rank[i], 1, t.vals[i]) }
func (t *rankTree) remove(i int) { t.update(t.rank[i], -1, -t.vals[i]) }

func (t *rankTree) update(r, dc int, dv float64) {
	for ; r <= t.size; r += r & -r {
		t.node[r].cnt += dc
		t.node[r].sum += dv
	}
}

// kSmallestSum returns the sum of the k smallest present values. It
// panics if fewer than k values are present (a programming error in the
// sweep logic).
func (t *rankTree) kSmallestSum(k int) float64 {
	if k == 0 {
		return 0
	}
	// Descend to the last rank pos with fewer than k present at or
	// below it. Counts are 0 or 1, so exactly k-1 are, and rank pos+1 is
	// present: the k-th smallest.
	pos, got := 0, 0
	var s float64
	for step := t.top; step > 0; step >>= 1 {
		next := pos + step
		if next <= t.size && got+t.node[next].cnt < k {
			got += t.node[next].cnt
			s += t.node[next].sum
			pos = next
		}
	}
	if pos+1 > t.size {
		panic("temporal: rank tree holds fewer elements than requested")
	}
	return s + t.valAt[pos+1]
}

// MeanSavings condenses a sweep into the paper's reporting quantities:
// mean absolute savings of deferral vs baseline and interruption vs
// deferral, plus the mean baseline, all in g·CO₂eq per job.
type MeanSavings struct {
	Baseline        float64
	DeferSaving     float64
	InterruptSaving float64
}

// Reduce averages a Costs bundle into MeanSavings.
func (c Costs) Reduce() MeanSavings {
	n := len(c.Baseline)
	if n == 0 {
		return MeanSavings{}
	}
	var base, def, intr float64
	for i := 0; i < n; i++ {
		base += c.Baseline[i]
		def += c.Baseline[i] - c.Deferred[i]
		intr += c.Deferred[i] - c.Interrupted[i]
	}
	f := float64(n)
	return MeanSavings{Baseline: base / f, DeferSaving: def / f, InterruptSaving: intr / f}
}
