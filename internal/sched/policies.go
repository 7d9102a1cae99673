package sched

import (
	"fmt"
	"sort"

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
func (FIFO) Plan(t *Tick) []Placement {
	var out []Placement
	for _, j := range t.Eligible {
		region := j.Origin
		if t.FreeSlots[region] <= 0 {
			if !j.Migratable {
				continue
			}
			region = ""
			for _, r := range t.Regions {
				if t.FreeSlots[r] > 0 {
					region = r
					break
				}
			}
			if region == "" {
				continue
			}
		}
		out = append(out, Placement{JobID: j.ID, Region: region})
		t.FreeSlots[region]--
	}
	return out
}

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

func (p CarbonGate) window() int {
	if p.Window <= 0 {
		return 168
	}
	return p.Window
}

// Plan implements Policy.
func (p CarbonGate) Plan(t *Tick) []Placement {
	thresholds := make(map[string]float64)
	threshold := func(region string) float64 {
		if v, ok := thresholds[region]; ok {
			return v
		}
		look := t.Lookback(region, p.window())
		v := t.CI(region) // no history yet: always run
		if len(look) > 0 {
			v = stats.Percentile(look, p.Percentile)
		}
		thresholds[region] = v
		return v
	}
	var out []Placement
	for _, j := range t.Eligible {
		if t.FreeSlots[j.Origin] <= 0 {
			continue
		}
		// Urgency override: if waiting one more hour would leave no
		// room to finish, run regardless of the gate. (The simulator
		// also forces this, but a well-behaved policy should not rely
		// on the backstop.)
		urgent := j.SlackLeft() <= 1
		if !urgent && t.CI(j.Origin) > threshold(j.Origin) {
			continue
		}
		out = append(out, Placement{JobID: j.ID, Region: j.Origin})
		t.FreeSlots[j.Origin]--
	}
	return out
}

// GreenestFirst is the spatial policy: run immediately, but place each
// migratable job in the cleanest region with a free slot. Pinned jobs
// run at home.
type GreenestFirst struct{}

// Name implements Policy.
func (GreenestFirst) Name() string { return "greenest-first" }

// Plan implements Policy.
func (GreenestFirst) Plan(t *Tick) []Placement {
	ranked := rankByCI(t)
	var out []Placement
	for _, j := range t.Eligible {
		region := ""
		if j.Migratable {
			for _, r := range ranked {
				if t.FreeSlots[r] > 0 {
					region = r
					break
				}
			}
		} else if t.FreeSlots[j.Origin] > 0 {
			region = j.Origin
		}
		if region == "" {
			continue
		}
		out = append(out, Placement{JobID: j.ID, Region: region})
		t.FreeSlots[region]--
	}
	return out
}

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
func (p SpatioTemporal) Plan(t *Tick) []Placement {
	gate := CarbonGate{Percentile: p.Percentile, Window: p.Window}
	ranked := rankByCI(t)
	thresholds := make(map[string]float64)
	threshold := func(region string) float64 {
		if v, ok := thresholds[region]; ok {
			return v
		}
		look := t.Lookback(region, gate.window())
		v := t.CI(region)
		if len(look) > 0 {
			v = stats.Percentile(look, gate.Percentile)
		}
		thresholds[region] = v
		return v
	}
	var out []Placement
	for _, j := range t.Eligible {
		region := ""
		if j.Migratable {
			for _, r := range ranked {
				if t.FreeSlots[r] > 0 {
					region = r
					break
				}
			}
		} else if t.FreeSlots[j.Origin] > 0 {
			region = j.Origin
		}
		if region == "" {
			continue
		}
		urgent := j.SlackLeft() <= 1
		if !urgent && t.CI(region) > threshold(region) {
			continue
		}
		out = append(out, Placement{JobID: j.ID, Region: region})
		t.FreeSlots[region]--
	}
	return out
}

func rankByCI(t *Tick) []string {
	ranked := make([]string, len(t.Regions))
	copy(ranked, t.Regions)
	sort.SliceStable(ranked, func(a, b int) bool {
		return t.CI(ranked[a]) < t.CI(ranked[b])
	})
	return ranked
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
	if spec.Jobs < 1 || spec.ArrivalSpan < 1 || len(spec.Origins) == 0 {
		return nil, errBadSpec(spec)
	}
	if spec.InterruptibleFrac < 0 || spec.InterruptibleFrac > 1 ||
		spec.MigratableFrac < 0 || spec.MigratableFrac > 1 {
		return nil, errBadSpec(spec)
	}
	dist := spec.Dist
	if len(dist.Lengths()) == 0 {
		dist = workload.DistEqual
	}
	src := rng.New(spec.Seed)
	jobs := make([]Job, spec.Jobs)
	// start[a+1] counts the jobs arriving at hour a; the prefix sum below
	// turns it into each hour's first position in the ordered stream. A
	// span is hours inside a trace the caller already holds, so the
	// counters are never larger than one region's intensity series.
	start := make([]int, spec.ArrivalSpan+1)
	for i := range jobs {
		jobs[i] = Job{
			ID:            i,
			Origin:        spec.Origins[src.Intn(len(spec.Origins))],
			Arrival:       src.Intn(spec.ArrivalSpan),
			Length:        dist.Sample(src),
			Slack:         spec.SlackHours,
			Interruptible: src.Float64() < spec.InterruptibleFrac,
			Migratable:    src.Float64() < spec.MigratableFrac,
		}
		start[jobs[i].Arrival+1]++
	}
	// Order by (Arrival, ID) with a stable counting sort on Arrival: ids
	// ascend in generation order, so stability is the ID tie-break.
	for a := 1; a < len(start); a++ {
		start[a] += start[a-1]
	}
	ordered := make([]Job, len(jobs))
	for i := range jobs {
		a := jobs[i].Arrival
		ordered[start[a]] = jobs[i]
		start[a]++
	}
	return ordered, nil
}

func errBadSpec(spec WorkloadSpec) error {
	return fmt.Errorf("sched: bad workload spec %+v", spec)
}
