package core

import (
	"context"
	"fmt"
	"math"
	"sync"

	"carbonshift/internal/engine"
	"carbonshift/internal/regions"
	"carbonshift/internal/rng"
	"carbonshift/internal/scenario"
	"carbonshift/internal/simgrid"
	"carbonshift/internal/stats"
	"carbonshift/internal/temporal"
	"carbonshift/internal/trace"
)

// Fig11a reproduces Figure 11(a): carbon reduction as the migratable
// share of a mixed batch/interactive fleet grows.
func (l *Lab) Fig11a(ctx context.Context) (*Table, error) {
	arrivals := l.strideArrivals(1)
	t := &Table{
		ID:      "fig11a",
		Title:   "Mixed workloads: reduction vs migratable fraction",
		Columns: []string{"reduction_g", "reduction_pct"},
	}
	var fracs []float64
	for frac := 0.0; frac <= 1.0001; frac += 0.1 {
		fracs = append(fracs, frac)
	}
	// One fleet evaluation per migratable fraction, each an independent
	// engine cell.
	results, err := engine.Map(ctx, l.opts.Workers, len(fracs), func(_ context.Context, i int) (scenario.MixedResult, error) {
		f := fracs[i]
		if f > 1 {
			f = 1
		}
		return scenario.MixedWorkload(l.Set, f, arrivals)
	})
	if err != nil {
		return nil, err
	}
	for i, frac := range fracs {
		t.AddRow(fmt.Sprintf("migratable_%.0f%%", frac*100),
			results[i].Reduction(), 100*results[i].Reduction()/l.GlobalMean)
	}
	t.Notes = append(t.Notes,
		"paper: reductions scale with the migratable share; ~30% of real fleets are non-migratable interactive VMs")
	return t, nil
}

// fig11bLength is the job length used in the forecast-error sweep.
const fig11bLength = 24

// Fig11b reproduces Figure 11(b): the emissions increase caused by
// carbon-intensity forecast errors, for temporal and spatial shifting.
func (l *Lab) Fig11b(ctx context.Context) (*Table, error) {
	slack := l.slackFor(figSlackIdeal)
	arrivals := l.strideArrivals(fig11bLength + slack)
	if len(arrivals) == 0 {
		return nil, fmt.Errorf("core: trace too short for fig11b")
	}
	codes := l.hyperscaleCodes()
	t := &Table{
		ID:      "fig11b",
		Title:   "Emissions increase vs forecast error (temporal and spatial scheduling)",
		Columns: []string{"temporal_pct", "spatial_pct"},
	}
	errFracs := []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5}
	// One error level per cell. Every cell reseeds its generator from
	// the lab seed alone and pre-splits one child stream per region
	// (rng.SplitN), so its noise is a pure function of the error level
	// and never of which worker runs it or in what order.
	type cell struct{ tPct, sPct float64 }
	rows, err := engine.Map(ctx, l.opts.Workers, len(errFracs), func(_ context.Context, i int) (cell, error) {
		errFrac := errFracs[i]
		src := rng.New(l.opts.Sim.Seed ^ 0xe44c)
		srcs := src.SplitN(len(codes) + 1)
		// Temporal: schedule each job on its region's noisy trace, pay
		// the true trace.
		var tAcc float64
		tN := 0
		for ci, code := range codes {
			tr := l.Set.MustGet(code)
			noisy, err := scenario.UniformError(tr.CI, errFrac, srcs[ci])
			if err != nil {
				return cell{}, err
			}
			for _, a := range arrivals {
				impact, err := scenario.TemporalForecast(tr.CI, noisy, a, fig11bLength, slack)
				if err != nil {
					return cell{}, err
				}
				tAcc += impact.IncreaseFrac()
				tN++
			}
		}

		// Spatial: ∞-migration chasing the noisy argmin, paying truth.
		noisySet, err := l.noisySet(errFrac, srcs[len(codes)])
		if err != nil {
			return cell{}, err
		}
		var sAcc float64
		sN := 0
		for _, a := range l.strideArrivals(fig11bLength) {
			impact, err := scenario.SpatialForecast(l.Set, noisySet, l.Set.Regions(), a, fig11bLength)
			if err != nil {
				return cell{}, err
			}
			sAcc += impact.IncreaseFrac()
			sN++
		}
		return cell{100 * tAcc / float64(tN), 100 * sAcc / float64(sN)}, nil
	})
	if err != nil {
		return nil, err
	}
	for i, errFrac := range errFracs {
		t.AddRow(fmt.Sprintf("error_%.0f%%", errFrac*100), rows[i].tPct, rows[i].sPct)
	}
	t.Notes = append(t.Notes,
		"paper: ~10-12% increase at 50% error; CarbonCast-grade forecasts (<14% MAPE) imply ~3% in practice")
	return t, nil
}

func (l *Lab) hyperscaleCodes() []string {
	var out []string
	for _, r := range l.Regions {
		if r.Providers.Hyperscale() {
			out = append(out, r.Code)
		}
	}
	if len(out) == 0 {
		out = l.Set.Regions()
	}
	return out
}

func (l *Lab) noisySet(errFrac float64, src *rng.Source) (*trace.Set, error) {
	var traces []*trace.Trace
	for _, code := range l.Set.Regions() {
		tr := l.Set.MustGet(code)
		noisy, err := scenario.UniformError(tr.CI, errFrac, src.Split())
		if err != nil {
			return nil, err
		}
		traces = append(traces, trace.New(code, tr.Start, noisy))
	}
	return trace.NewSet(traces)
}

// fig11Region is the paper's example region for the greener-grid
// sweep.
const fig11Region = "US-CA"

// greenerSteps are the added renewable shares swept by Figure 11(c-d).
var greenerSteps = []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5}

// Fig11c reproduces Figure 11(c): carbon-agnostic vs carbon-aware
// temporal scheduling in California as the grid adds renewables.
func (l *Lab) Fig11c(ctx context.Context) (*Table, error) {
	region := l.exampleRegion()
	slack := l.slackFor(figSlackIdeal)
	const length = fig11bLength
	t := &Table{
		ID:      "fig11c",
		Title:   fmt.Sprintf("Greener grid, temporal scheduling in %s (g·CO₂eq per job-hour)", region),
		Columns: []string{"agnostic_g", "aware_g", "gap_g"},
	}
	reg, err := l.regionByCode(region)
	if err != nil {
		return nil, err
	}
	arrivals := l.arrivals(length + slack)
	if arrivals < 1 {
		return nil, fmt.Errorf("core: trace too short for fig11c")
	}
	// One weather draw for the region, re-dispatched at every renewable
	// step over the hours the sweeps read; then one temporal sweep per
	// step, each an engine cell.
	series, err := simgrid.WhatIf(reg, l.opts.Sim, greenerSteps, arrivals+length+slack)
	if err != nil {
		return nil, err
	}
	type cell struct{ agnostic, aware float64 }
	rows, err := engine.Map(ctx, l.opts.Workers, len(greenerSteps), func(_ context.Context, i int) (cell, error) {
		costs, err := temporal.Sweep(series[i], length, slack, arrivals)
		if err != nil {
			return cell{}, err
		}
		return cell{
			agnostic: stats.Mean(costs.Baseline) / length,
			aware:    stats.Mean(costs.Interrupted) / length,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	for i, add := range greenerSteps {
		t.AddRow(fmt.Sprintf("renew_+%.0f%%", add*100),
			rows[i].agnostic, rows[i].aware, rows[i].agnostic-rows[i].aware)
	}
	t.Notes = append(t.Notes,
		"paper: both curves fall as the grid greens, and the carbon-aware advantage over carbon-agnostic shrinks")
	return t, nil
}

// Fig11d reproduces Figure 11(d): carbon-agnostic vs carbon-aware
// (∞-migration) spatial scheduling for California jobs as the whole
// world adds renewables.
func (l *Lab) Fig11d(ctx context.Context) (*Table, error) {
	region := l.exampleRegion()
	const length = fig11bLength
	t := &Table{
		ID:      "fig11d",
		Title:   fmt.Sprintf("Greener grid, spatial scheduling from %s (g·CO₂eq per job-hour)", region),
		Columns: []string{"agnostic_g", "aware_g", "gap_g"},
	}
	arrivals := l.strideArrivals(length)
	if len(arrivals) == 0 {
		return nil, fmt.Errorf("core: trace too short for fig11d")
	}
	hours := l.arrivals(length) + length // every hour a job above can touch

	// One region per cell: its weather drawn once, re-dispatched at
	// every renewable step over `hours`, and folded straight into the
	// per-step ∞-migration envelope (the hourly minimum across regions).
	// Only the example region's own series outlive their cell. A minimum
	// does not depend on the order it is taken in, so the fold order the
	// worker schedule picks cannot change a bit of the table.
	envelope := make([][]float64, len(greenerSteps))
	for s := range envelope {
		envelope[s] = make([]float64, hours)
		for h := range envelope[s] {
			envelope[s][h] = math.Inf(1)
		}
	}
	var (
		mu  sync.Mutex
		own [][]float64
	)
	err := engine.ForEach(ctx, l.opts.Workers, len(l.Regions), func(_ context.Context, i int) error {
		series, err := simgrid.WhatIf(l.Regions[i], l.opts.Sim, greenerSteps, hours)
		if err != nil {
			return err
		}
		mu.Lock()
		defer mu.Unlock()
		for s, ci := range series {
			env := envelope[s]
			for h, v := range ci {
				if v < env[h] {
					env[h] = v
				}
			}
		}
		if l.Regions[i].Code == region {
			own = series
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	for s, add := range greenerSteps {
		var agnostic, aware float64
		for _, a := range arrivals {
			// Summed per job, then across jobs: the offline digest pins
			// this grouping's rounding.
			var job float64
			for _, v := range own[s][a : a+length] {
				job += v
			}
			agnostic += job
			for _, v := range envelope[s][a : a+length] {
				aware += v
			}
		}
		n := float64(len(arrivals)) * length
		t.AddRow(fmt.Sprintf("renew_+%.0f%%", add*100),
			agnostic/n, aware/n, (agnostic-aware)/n)
	}
	t.Notes = append(t.Notes,
		"paper: as renewables grow everywhere, carbon-agnostic emissions approach carbon-aware emissions")
	return t, nil
}

func (l *Lab) exampleRegion() string {
	if _, ok := l.Set.Get(fig11Region); ok {
		return fig11Region
	}
	return l.Set.Regions()[0]
}

func (l *Lab) regionByCode(code string) (regions.Region, error) {
	for _, r := range l.Regions {
		if r.Code == code {
			return r, nil
		}
	}
	return regions.Region{}, fmt.Errorf("core: region %q not in lab", code)
}

// fig12Destinations are the flagged destination regions of Figure 12.
var fig12Destinations = []string{
	"SE", "CA-ON", "BE", "FR", "CH", "US-CA", "US-VA", "GB", "NL", "KR", "US-UT", "IN-WE",
}

// Fig12 reproduces Figure 12: the spatial and temporal decomposition
// of combined shifting per destination region, for one-year and
// 24-hour slack.
func (l *Lab) Fig12(ctx context.Context) (*Table, error) {
	const length = 24
	ideal := l.slackFor(figSlackIdeal)
	practical := l.slackFor(figSlackPractical)
	arrivals := l.strideArrivals(length + ideal)
	if len(arrivals) == 0 {
		return nil, fmt.Errorf("core: trace too short for fig12")
	}
	origins := l.Set.Regions()
	t := &Table{
		ID:      "fig12",
		Title:   "Combined spatial+temporal shifting by destination (g·CO₂eq per job-hour)",
		Columns: []string{"spatial", "temporal_1y", "net_1y", "temporal_24h", "net_24h"},
	}
	dests := fig12Destinations
	var present []string
	for _, d := range dests {
		if _, ok := l.Set.Get(d); ok {
			present = append(present, d)
		}
	}
	if len(present) == 0 {
		present = origins
		if len(present) > 4 {
			present = present[:4]
		}
	}
	// One destination region per cell; each evaluates the combined
	// policy at both slacks over every (origin, arrival) pair.
	type cell struct{ ideal, practical scenario.CombinedResult }
	rows, err := engine.Map(ctx, l.opts.Workers, len(present), func(_ context.Context, i int) (cell, error) {
		ri, err := scenario.Combined(l.Set, present[i], origins, length, ideal, arrivals)
		if err != nil {
			return cell{}, err
		}
		rp, err := scenario.Combined(l.Set, present[i], origins, length, practical, arrivals)
		if err != nil {
			return cell{}, err
		}
		return cell{ri, rp}, nil
	})
	if err != nil {
		return nil, err
	}
	for i, dest := range present {
		ri, rp := rows[i].ideal, rows[i].practical
		fl := float64(length)
		t.AddRow(dest,
			ri.SpatialSaving/fl,
			ri.TemporalSaving/fl, ri.NetSaving()/fl,
			rp.TemporalSaving/fl, rp.NetSaving()/fl)
	}
	t.Notes = append(t.Notes,
		"paper: the spatial term dominates the net regardless of slack — green destinations (SE, CA-ON, BE) win even with low variability, while dirty ones (NL, KR, US-UT) lose even with high temporal savings")
	return t, nil
}
