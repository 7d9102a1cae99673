// Package core is the paper's analysis engine: it owns the simulated
// dataset (traces, region catalog) and implements one experiment per
// figure of the evaluation, each reproducing the rows or series the
// paper reports.
//
// The entry point is Lab. A Lab generates the 123-region, 3-year trace
// set once, derives the shared artifacts (per-year views, the global
// mean used as the normalization constant), and caches the expensive
// temporal sweeps so the Figure 7–10 family shares work. A study with a
// world of its own (Experiment.Options) runs on a lab of that world.
// All experiments are deterministic under the Lab's seed.
package core

import (
	"context"
	"fmt"
	"sync"

	"carbonshift/internal/engine"
	"carbonshift/internal/regions"
	"carbonshift/internal/simgrid"
	"carbonshift/internal/temporal"
	"carbonshift/internal/trace"
)

// Options configures a Lab. NewLabCtx refuses a negative ArrivalSpan,
// Stride or Workers.
type Options struct {
	// Sim configures the grid simulator (seed, period, extra
	// renewables). Zero values take simgrid defaults.
	Sim simgrid.Config
	// Regions restricts the dataset; nil means the full 123-region
	// catalog.
	Regions []regions.Region
	// ArrivalSpan is the number of distinct hourly job start times the
	// sweeps cover ("all 8760 potential start times over a year").
	// Zero means 8760, or as many as the trace supports if shorter.
	ArrivalSpan int
	// Stride subsamples arrival lists in experiments that evaluate
	// arrivals one by one (the what-if scenarios); the closed-form
	// sweeps always use every arrival. Zero means a default that keeps
	// the full run under a minute.
	Stride int
	// Workers bounds the experiment engine's concurrency: how many
	// independent (region × policy × scenario) cells run at once, both
	// during trace generation and inside each experiment. Zero means
	// one worker per CPU (engine.DefaultWorkers); 1 forces the serial
	// reference path. Results are byte-identical for every setting.
	// Generation holds to it (trace.NewSet validates serially); the
	// rest of set-up does not: Set.GlobalMean runs one worker per CPU.
	Workers int
}

// Lab owns the dataset and caches shared computations.
type Lab struct {
	opts Options
	// Regions is the catalog subset in use, sorted by code.
	Regions []regions.Region
	// Set is the full-period trace set.
	Set *trace.Set
	// GlobalMean is the dataset's mean of per-region mean intensities —
	// the paper's 368.39 g·CO₂eq/kWh normalization constant.
	GlobalMean float64

	arrivalSpan int
	stride      int

	mu    sync.Mutex
	cells map[cellKey]temporal.MeanSavings
	years map[int]*trace.Set
}

type cellKey struct {
	region string
	length int
	slack  int
}

// NewLabCtx generates the dataset and prepares shared artifacts. Trace
// generation fans out across opts.Workers goroutines through the
// process-level simgrid cache, and cancelling ctx aborts it.
func NewLabCtx(ctx context.Context, opts Options) (*Lab, error) {
	// Only zero means "default": a negative value is refused before any
	// trace is generated.
	if opts.ArrivalSpan < 0 || opts.Stride < 0 || opts.Workers < 0 {
		return nil, fmt.Errorf("core: negative option: arrival span %d, stride %d, workers %d",
			opts.ArrivalSpan, opts.Stride, opts.Workers)
	}
	regs := opts.Regions
	if regs == nil {
		regs = regions.All()
	}
	set, err := simgrid.GenerateCached(ctx, regs, opts.Sim, opts.Workers)
	if err != nil {
		return nil, fmt.Errorf("core: generating traces: %w", err)
	}
	span := opts.ArrivalSpan
	if span == 0 {
		span = 8760
	}
	stride := opts.Stride
	if stride == 0 {
		stride = 293 // ~30 arrival samples per year, co-prime with 24 and 168
	}
	l := &Lab{
		opts:        opts,
		Regions:     regs,
		Set:         set,
		GlobalMean:  set.GlobalMean(),
		arrivalSpan: span,
		stride:      stride,
		cells:       make(map[cellKey]temporal.MeanSavings),
		years:       make(map[int]*trace.Set),
	}
	return l, nil
}

// Year returns (and caches) the trace set restricted to one calendar
// year.
func (l *Lab) Year(y int) (*trace.Set, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if s, ok := l.years[y]; ok {
		return s, nil
	}
	s, err := l.Set.Year(y)
	if err != nil {
		return nil, err
	}
	l.years[y] = s
	return s, nil
}

// Groupings returns the paper's geographic groupings in display order:
// "Global" first, then the continents present in the dataset.
func (l *Lab) Groupings() []Grouping {
	out := []Grouping{{Name: "Global", Codes: l.Set.Regions()}}
	for _, c := range regions.Continents() {
		var codes []string
		for _, r := range l.Regions {
			if r.Continent == c {
				codes = append(codes, r.Code)
			}
		}
		if len(codes) > 0 {
			out = append(out, Grouping{Name: c.String(), Codes: codes})
		}
	}
	return out
}

// Grouping is a named set of region codes.
type Grouping struct {
	Name  string
	Codes []string
}

// arrivals returns the number of hourly start times temporal sweeps
// may use for a job of the given horizon, clamped so the final horizon
// fits the trace.
func (l *Lab) arrivals(horizon int) int {
	n := l.arrivalSpan
	if max := l.Set.Len() - horizon; n > max {
		n = max
	}
	return n
}

// strideArrivals returns the subsampled arrival list for per-arrival
// scenario evaluations with the given horizon.
func (l *Lab) strideArrivals(horizon int) []int {
	limit := l.arrivals(horizon)
	var out []int
	for a := 0; a < limit; a += l.stride {
		out = append(out, a)
	}
	return out
}

// TemporalCell returns the mean per-job savings of the temporal
// policies for one (region, length, slack) combination, averaged over
// the full arrival span. Results are cached.
func (l *Lab) TemporalCell(region string, length, slack int) (temporal.MeanSavings, error) {
	key := cellKey{region, length, slack}
	l.mu.Lock()
	if ms, ok := l.cells[key]; ok {
		l.mu.Unlock()
		return ms, nil
	}
	l.mu.Unlock()

	tr, ok := l.Set.Get(region)
	if !ok {
		return temporal.MeanSavings{}, fmt.Errorf("core: unknown region %q", region)
	}
	arrivals := l.arrivals(length + slack)
	if arrivals < 1 {
		return temporal.MeanSavings{}, fmt.Errorf("core: horizon %d+%d leaves no arrivals in %d-hour trace",
			length, slack, l.Set.Len())
	}
	costs, err := temporal.Sweep(tr.CI, length, slack, arrivals)
	if err != nil {
		return temporal.MeanSavings{}, err
	}
	ms := costs.Reduce()

	l.mu.Lock()
	l.cells[key] = ms
	l.mu.Unlock()
	return ms, nil
}

// FillTemporalGrid computes all (region, length, slack) cells through
// the experiment engine, warming the cache for the Figure 7–10 family
// in one pass.
func (l *Lab) FillTemporalGrid(ctx context.Context, lengths, slacks []int) error {
	var cells []cellKey
	for _, code := range l.Set.Regions() {
		for _, slack := range slacks {
			for _, length := range lengths {
				cells = append(cells, cellKey{code, length, slack})
			}
		}
	}
	return l.warmCells(ctx, cells)
}

// warmCells fans the given temporal cells across the lab's worker pool
// so later serial reductions over them are pure cache hits. Cell values
// are independent of evaluation order, so the warmed cache — and every
// table assembled from it — is byte-identical for any worker count.
func (l *Lab) warmCells(ctx context.Context, cells []cellKey) error {
	return engine.ForEach(ctx, l.opts.Workers, len(cells), func(_ context.Context, i int) error {
		c := cells[i]
		if _, err := l.TemporalCell(c.region, c.length, c.slack); err != nil {
			return fmt.Errorf("core: sweep %s L=%d s=%d: %w", c.region, c.length, c.slack, err)
		}
		return nil
	})
}

// MeanOver returns the mean over the listed regions of f(region).
func MeanOver(codes []string, f func(code string) float64) float64 {
	if len(codes) == 0 {
		return 0
	}
	var s float64
	for _, c := range codes {
		s += f(c)
	}
	return s / float64(len(codes))
}

// regionMeans takes each listed region's mean intensity once. A mean is
// a sum over the whole trace, so a figure that compares regions pairwise
// or sorts by it looks the value up instead of asking the trace again.
func regionMeans(set *trace.Set, codes []string) map[string]float64 {
	means := make(map[string]float64, len(codes))
	for _, code := range codes {
		means[code] = set.MustGet(code).Mean()
	}
	return means
}
