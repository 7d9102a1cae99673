package sched

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"carbonshift/internal/rng"
	"carbonshift/internal/stats"
	"carbonshift/internal/workload"
)

// FIFO is the carbon-agnostic baseline: run every eligible job as soon
// as a slot is free, in its origin region, spilling migratable jobs to
// other regions (in sorted order) when the origin is full.
type FIFO struct{}

// Name implements Policy.
func (FIFO) Name() string { return "fifo" }

// Plan implements Policy.
func (FIFO) Plan(t *Tick) []Placement { return plan(t, spill, nil) }

// CarbonGate defers work while the local grid is dirty: a job runs only
// when its region's current intensity is at or below the Percentile of
// the trailing Window hours — or when its slack is nearly gone (the
// simulator's deadline forcing provides the hard backstop). This is
// the "suspend during high-carbon periods" family of policies the
// paper cites (Wiesner et al.).
type CarbonGate struct {
	// Percentile in (0, 100): run when current CI <= this percentile
	// of the lookback window. 30 means "run during the cleanest 30% of
	// recent hours".
	Percentile float64
	// Window is the lookback length in hours (default 168).
	Window int
}

// Name implements Policy.
func (p CarbonGate) Name() string { return "carbon-gate" }

// Plan implements Policy.
func (p CarbonGate) Plan(t *Tick) []Placement { return plan(t, atOrigin, p.threshold) }

func (p CarbonGate) threshold(t *Tick, region int) float64 {
	window := p.Window
	if window <= 0 {
		window = 168
	}
	look := t.Lookback(region, window)
	if len(look) == 0 {
		return t.CI[region] // no history yet: always run
	}
	return stats.Percentile(look, p.Percentile)
}

// GreenestFirst is the spatial policy: run immediately, but place each
// migratable job in the cleanest region with a free slot. Pinned jobs
// run at home.
type GreenestFirst struct{}

// Name implements Policy.
func (GreenestFirst) Name() string { return "greenest-first" }

// Plan implements Policy.
func (GreenestFirst) Plan(t *Tick) []Placement { return plan(t, greenest, nil) }

// SpatioTemporal combines both dimensions: migratable jobs chase the
// cleanest region; all jobs additionally wait out dirty periods behind
// a CarbonGate threshold evaluated at the chosen destination.
type SpatioTemporal struct {
	Percentile float64
	Window     int
}

// Name implements Policy.
func (SpatioTemporal) Name() string { return "spatiotemporal" }

// Plan implements Policy.
func (p SpatioTemporal) Plan(t *Tick) []Placement { return plan(t, greenest, CarbonGate(p).threshold) }

// tickMemo is what a plan computes at most once per tick: the regions
// ranked by intensity and each region's gate threshold.
type tickMemo struct {
	*Tick
	ranked     []int     // region indices, cleanest first; nil until asked
	thresholds []float64 // by region index; NaN until asked
}

// plan is the placement loop every policy runs. In the Tick's order
// (Tick.Job), dest picks a region with a free slot for the job (-1:
// none). With a gate, a job with slack to spare runs only if the
// region's intensity is at or below the gate's threshold for it; an
// urgent job (one more hour of waiting would leave no room to finish)
// runs regardless — deadline forcing is the simulator's backstop, but a
// well-behaved policy does not rely on it. dest takes the view by
// value: a pointer to it would move it to the heap, once per job per
// hour.
func plan(t *Tick, dest func(*tickMemo, JobView) int, gate func(*Tick, int) float64) []Placement {
	m := &tickMemo{Tick: t}
	var out []Placement
	for k := range t.Len() {
		j := t.Job(k)
		ri := dest(m, j)
		if ri < 0 {
			continue
		}
		if gate != nil && j.SlackLeft() > 1 {
			if m.thresholds == nil {
				m.thresholds = make([]float64, len(t.CI))
				for i := range m.thresholds {
					m.thresholds[i] = math.NaN()
				}
			}
			if math.IsNaN(m.thresholds[ri]) {
				m.thresholds[ri] = gate(t, ri)
			}
			if t.CI[ri] > m.thresholds[ri] {
				continue
			}
		}
		out = append(out, Placement{Job: k, Region: ri})
		t.Free[ri]--
	}
	return out
}

// atOrigin runs a job at home, if home has a free slot.
func atOrigin(m *tickMemo, j JobView) int {
	if m.Free[j.Origin] > 0 {
		return j.Origin
	}
	return -1
}

// spill runs a job at home, or a migratable one in the first region,
// in index order, with a free slot.
func spill(m *tickMemo, j JobView) int {
	if !j.Migratable || m.Free[j.Origin] > 0 {
		return atOrigin(m, j)
	}
	for ri, n := range m.Free {
		if n > 0 {
			return ri
		}
	}
	return -1
}

// greenest runs a migratable job in the cleanest region with a free
// slot (ties in index order), a pinned one at home.
func greenest(m *tickMemo, j JobView) int {
	if !j.Migratable {
		return atOrigin(m, j)
	}
	if m.ranked == nil {
		m.ranked = make([]int, len(m.CI))
		for i := range m.ranked {
			m.ranked[i] = i
		}
		slices.SortStableFunc(m.ranked, func(a, b int) int { return cmp.Compare(m.CI[a], m.CI[b]) })
	}
	for _, ri := range m.ranked {
		if m.Free[ri] > 0 {
			return ri
		}
	}
	return -1
}

// WorkloadSpec describes a synthetic job stream for the simulator.
type WorkloadSpec struct {
	// Jobs is the number of jobs to generate.
	Jobs int
	// ArrivalSpan spreads arrivals uniformly over [0, ArrivalSpan).
	ArrivalSpan int
	// Dist draws job lengths (default: workload.DistEqual).
	Dist workload.Distribution
	// SlackHours applies to every job.
	SlackHours int
	// InterruptibleFrac and MigratableFrac set the flexibility mix.
	InterruptibleFrac, MigratableFrac float64
	// Origins are the submission regions, cycled deterministically and
	// perturbed by the seed.
	Origins []string
	// Seed drives all sampling.
	Seed uint64
}

// GenerateJobs produces a deterministic job stream from the spec.
func GenerateJobs(spec WorkloadSpec) ([]Job, error) {
	if spec.Jobs < 1 || spec.ArrivalSpan < 1 || spec.SlackHours < 0 || len(spec.Origins) == 0 {
		return nil, errBadSpec(spec)
	}
	// Written so that a NaN fraction fails too.
	if !(spec.InterruptibleFrac >= 0 && spec.InterruptibleFrac <= 1) ||
		!(spec.MigratableFrac >= 0 && spec.MigratableFrac <= 1) {
		return nil, errBadSpec(spec)
	}
	dist, lengths := spec.Dist, spec.Dist.Lengths()
	if len(lengths) == 0 {
		dist, lengths = workload.DistEqual, workload.DistEqual.Lengths()
	}
	// The draws are kept in 32 bits: a job past maxHour could not be
	// valid, and a stream of more than MaxInt32 jobs could not be held.
	if spec.Jobs > math.MaxInt32 || spec.ArrivalSpan > maxHour || len(spec.Origins) > math.MaxInt32 ||
		slices.Max(lengths) > maxHour {
		return nil, errBadSpec(spec)
	}
	src := rng.New(spec.Seed)
	// Allocated first: a collection its size sets off then runs beside
	// the pointer-free draws below, not beside the writes into it.
	jobs := make([]Job, spec.Jobs)
	// Each job's draws, in generation (ID) order, as a pointer-free
	// record.
	type drawn struct {
		origin, arrival, length int32
		flags                   uint8
	}
	const interruptible, migratable = 1, 2
	draws := make([]drawn, spec.Jobs)
	// start[a+1] counts the jobs arriving at hour a; the prefix sum below
	// turns it into each hour's first position in the ordered stream. A
	// span is hours inside a trace the caller already holds, so the
	// counters are never larger than one region's intensity series.
	start := make([]int32, spec.ArrivalSpan+1)
	for i := range draws {
		d := drawn{
			origin:  int32(src.Intn(len(spec.Origins))),
			arrival: int32(src.Intn(spec.ArrivalSpan)),
			length:  int32(dist.Sample(src)),
		}
		if src.Float64() < spec.InterruptibleFrac {
			d.flags |= interruptible
		}
		if src.Float64() < spec.MigratableFrac {
			d.flags |= migratable
		}
		draws[i] = d
		start[d.arrival+1]++
	}
	// Order by (Arrival, ID) with a stable counting sort on Arrival: ids
	// ascend in generation order, so stability is the ID tie-break. The
	// records move, not the jobs, and each job is written once, in
	// order.
	for a := 1; a < len(start); a++ {
		start[a] += start[a-1]
	}
	type placed struct {
		id int32
		drawn
	}
	sorted := make([]placed, spec.Jobs)
	for i, d := range draws {
		sorted[start[d.arrival]] = placed{int32(i), d}
		start[d.arrival]++
	}
	for p, d := range sorted {
		jobs[p] = Job{
			ID:            int(d.id),
			Origin:        spec.Origins[d.origin],
			Arrival:       int(d.arrival),
			Length:        int(d.length),
			Slack:         spec.SlackHours,
			Interruptible: d.flags&interruptible != 0,
			Migratable:    d.flags&migratable != 0,
		}
	}
	return jobs, nil
}

func errBadSpec(spec WorkloadSpec) error {
	return fmt.Errorf("sched: bad workload spec %+v", spec)
}
