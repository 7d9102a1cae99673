// Package core is the paper's analysis engine: it owns the simulated
// dataset (traces, region catalog) and implements one experiment per
// figure of the evaluation, each reproducing the rows or series the
// paper reports.
//
// The entry point is Lab. A Lab generates the 123-region, 3-year trace
// set once, derives the shared artifacts (per-year views, the global
// mean used as the normalization constant), and caches the mean savings
// of every temporal sweep cell so the Figure 7–10 family shares work. A
// study with a world of its own (Experiment.Options) runs on a lab of
// that world.
// All experiments are deterministic under the Lab's seed.
package core

import (
	"context"
	"fmt"
	"slices"
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

// Lab owns the dataset and caches shared computations. Temporal cells
// are kept in a dense table, one row per (length, slack) pair indexed
// by region; a fill sorts each region once into a temporal.Plan, sweeps
// the region's missing cells on it and drops it, so the lab retains the
// means and no plan.
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
	codes       []string // Set.Regions(), which indexes the cell rows

	mu    sync.Mutex
	cells map[cellPair]*cellRow
	years map[int]*trace.Set
}

// cellPair names one temporal cell per region: a job length and a
// slack, in hours.
type cellPair struct{ length, slack int }

// cellRow is one pair's cells, indexed like Lab.codes; done marks the
// regions whose cell has been swept.
type cellRow struct {
	means []temporal.MeanSavings
	done  []bool
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
		codes:       set.Regions(),
		cells:       make(map[cellPair]*cellRow),
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
// the full arrival span: a table read once the cell is filled, else a
// sweep of that one cell, which the table then keeps. The value is the
// same bits whichever way the cell was filled.
func (l *Lab) TemporalCell(region string, length, slack int) (temporal.MeanSavings, error) {
	r, ok := slices.BinarySearch(l.codes, region)
	if !ok {
		return temporal.MeanSavings{}, fmt.Errorf("core: unknown region %q", region)
	}
	p := cellPair{length, slack}
	if ms, ok := l.cell(r, p); ok {
		return ms, nil
	}
	if err := l.sweepRegion(context.TODO(), r, []cellPair{p}); err != nil {
		return temporal.MeanSavings{}, err
	}
	ms, _ := l.cell(r, p)
	return ms, nil
}

// FillTemporalGrid computes all (region, length, slack) cells through
// the experiment engine, warming the cache for the Figure 7–10 family
// in one pass.
func (l *Lab) FillTemporalGrid(ctx context.Context, lengths, slacks []int) error {
	var pairs []cellPair
	for _, slack := range slacks {
		for _, length := range lengths {
			pairs = append(pairs, cellPair{length, slack})
		}
	}
	return l.warmCells(ctx, pairs)
}

// warmCells fills the given pairs' cells for every region, one engine
// task per region, so later serial reductions over them are pure table
// reads. Cell values are independent of evaluation order, so the table
// — and every table assembled from it — is byte-identical for any
// worker count.
func (l *Lab) warmCells(ctx context.Context, pairs []cellPair) error {
	return engine.ForEach(ctx, l.opts.Workers, len(l.codes), func(ctx context.Context, r int) error {
		return l.sweepRegion(ctx, r, pairs)
	})
}

// sweepRegion fills region r's missing cells among pairs from one plan
// over the longest prefix of its trace they read.
func (l *Lab) sweepRegion(ctx context.Context, r int, pairs []cellPair) error {
	var missing []cellPair
	needed := 0
	for _, p := range pairs {
		if _, ok := l.cell(r, p); ok || slices.Contains(missing, p) {
			continue
		}
		arrivals := l.arrivals(p.length + p.slack)
		if arrivals < 1 {
			return fmt.Errorf("core: horizon %d+%d leaves no arrivals in %d-hour trace",
				p.length, p.slack, l.Set.Len())
		}
		missing = append(missing, p)
		needed = max(needed, temporal.Needed(p.length, p.slack, arrivals))
	}
	if len(missing) == 0 {
		return nil
	}
	code := l.codes[r]
	plan := temporal.NewPlan(l.Set.MustGet(code).CI[:needed])
	for _, p := range missing {
		if err := ctx.Err(); err != nil {
			return err
		}
		costs, err := plan.Sweep(p.length, p.slack, l.arrivals(p.length+p.slack))
		if err != nil {
			return fmt.Errorf("core: sweep %s L=%d s=%d: %w", code, p.length, p.slack, err)
		}
		l.setCell(r, p, costs.Reduce())
	}
	return nil
}

// cell reads region r's cell of pair p from the table.
func (l *Lab) cell(r int, p cellPair) (temporal.MeanSavings, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	row := l.cells[p]
	if row == nil || !row.done[r] {
		return temporal.MeanSavings{}, false
	}
	return row.means[r], true
}

// setCell stores region r's cell of pair p, adding the pair's row on
// its first cell.
func (l *Lab) setCell(r int, p cellPair, ms temporal.MeanSavings) {
	l.mu.Lock()
	defer l.mu.Unlock()
	row := l.cells[p]
	if row == nil {
		row = &cellRow{means: make([]temporal.MeanSavings, len(l.codes)), done: make([]bool, len(l.codes))}
		l.cells[p] = row
	}
	row.means[r], row.done[r] = ms, true
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
