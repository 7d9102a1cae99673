package core

import (
	"context"
	"fmt"

	"carbonshift/internal/engine"
	"carbonshift/internal/latency"
	"carbonshift/internal/spatial"
	"carbonshift/internal/stats"
)

// Fig5a reproduces Figure 5(a): spatial-migration carbon reductions
// under infinite capacity, by geographic grouping. Every job migrates
// to the globally greenest region, so a grouping's reduction is its
// mean intensity minus the global minimum.
func (l *Lab) Fig5a(context.Context) (*Table, error) {
	dest, destMean, err := spatial.LowestMeanRegion(l.Set, l.Set.Regions())
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "fig5a",
		Title:   "Spatial shifting with infinite capacity, by geographic grouping",
		Columns: []string{"reduction_g", "reduction_pct"},
	}
	for _, g := range l.Groupings() {
		red := MeanOver(g.Codes, func(code string) float64 {
			return l.Set.MustGet(code).Mean() - destMean
		})
		t.AddRow(g.Name, red, 100*red/l.GlobalMean)
	}
	t.Notes = append(t.Notes, fmt.Sprintf(
		"all jobs migrate to %s (%.1f g/kWh); paper: Sweden at ~16 g, global reduction 352 g (96%%)",
		dest, destMean))
	return t, nil
}

// Fig5b reproduces Figure 5(b): spatial reductions when every region
// has identical capacity and 50% of it is idle, using the greedy
// dirtiest-to-cleanest assignment.
func (l *Lab) Fig5b(context.Context) (*Table, error) {
	nodes, err := spatial.UniformNodes(l.Set, 0.5)
	if err != nil {
		return nil, err
	}
	a, err := spatial.AssignCapacity(nodes, nil)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "fig5b",
		Title:   "Spatial shifting with 50% idle capacity per region, by geographic grouping",
		Columns: []string{"reduction_g", "reduction_pct"},
	}
	for _, g := range l.Groupings() {
		red := MeanOver(g.Codes, func(code string) float64 {
			return l.Set.MustGet(code).Mean() - a.AchievedCI[code]
		})
		t.AddRow(g.Name, red, 100*red/l.GlobalMean)
	}
	t.Notes = append(t.Notes, fmt.Sprintf(
		"system emission rate %.1f -> %.1f g/kWh (paper: 190 g reduction, 52%% of global average)",
		a.BaselineRate, a.EmissionRate))
	return t, nil
}

// Fig5c reproduces Figure 5(c): global average reduction as idle
// capacity sweeps from 0 to 99%.
func (l *Lab) Fig5c(ctx context.Context) (*Table, error) {
	t := &Table{
		ID:      "fig5c",
		Title:   "Global reduction vs idle capacity",
		Columns: []string{"emission_rate_g", "reduction_pct"},
	}
	idles := []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.99}
	// One greedy capacity assignment per idle level, each an
	// independent engine cell.
	rates, err := engine.Map(ctx, l.opts.Workers, len(idles), func(_ context.Context, i int) (float64, error) {
		idle := idles[i]
		nodes, err := spatial.UniformNodes(l.Set, idle)
		if err != nil {
			return 0, err
		}
		if idle == 0 {
			return l.GlobalMean, nil // no capacity to move anything
		}
		a, err := spatial.AssignCapacity(nodes, nil)
		if err != nil {
			return 0, err
		}
		return a.EmissionRate, nil
	})
	if err != nil {
		return nil, err
	}
	for i, idle := range idles {
		t.AddRow(fmt.Sprintf("idle_%.0f%%", idle*100), rates[i], 100*(l.GlobalMean-rates[i])/l.GlobalMean)
	}
	t.Notes = append(t.Notes,
		"paper: 50% idle -> 51.5% reduction; 99% idle -> 95.68% reduction; ~1% reduction per 1% idle capacity")
	return t, nil
}

// Fig6a reproduces Figure 6(a): global average reduction under a
// latency SLO, for infinite capacity and for 50% utilization.
func (l *Lab) Fig6a(ctx context.Context) (*Table, error) {
	t := &Table{
		ID:      "fig6a",
		Title:   "Reduction vs latency SLO (infinite capacity and 50% utilization)",
		Columns: []string{"pct_infinite_capacity", "pct_50_util"},
	}
	slos := []float64{0, 10, 25, 50, 100, 150, 200, 250}
	// Every SLO compares every origin with every destination it reaches.
	means := regionMeans(l.Set, l.Set.Regions())
	lat := latency.NewMatrix(l.Regions)
	type cell struct{ infPct, utilPct float64 }
	rows, err := engine.Map(ctx, l.opts.Workers, len(slos), func(_ context.Context, i int) (cell, error) {
		slo := slos[i]
		// Infinite capacity: each origin reaches the cleanest region
		// within the SLO.
		reach := make(map[string]map[string]bool)
		for _, code := range l.Set.Regions() {
			within, err := lat.Within(code, slo)
			if err != nil {
				return cell{}, err
			}
			set := make(map[string]bool, len(within))
			for _, c := range within {
				set[c] = true
			}
			reach[code] = set
		}
		infRed := MeanOver(l.Set.Regions(), func(code string) float64 {
			best := means[code]
			for dst := range reach[code] {
				if m := means[dst]; m < best {
					best = m
				}
			}
			return means[code] - best
		})

		// 50% utilization: greedy assignment restricted to reachable
		// destinations.
		nodes, err := spatial.UniformNodes(l.Set, 0.5)
		if err != nil {
			return cell{}, err
		}
		a, err := spatial.AssignCapacity(nodes, func(from, to string) bool {
			return reach[from][to]
		})
		if err != nil {
			return cell{}, err
		}
		return cell{
			infPct:  100 * infRed / l.GlobalMean,
			utilPct: 100 * a.Reduction() / l.GlobalMean,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	for i, slo := range slos {
		t.AddRow(fmt.Sprintf("slo_%.0fms", slo), rows[i].infPct, rows[i].utilPct)
	}
	t.Notes = append(t.Notes,
		"paper: at 250 ms every region reaches the greenest region (92.5% with infinite capacity, 45.7% at 50% utilization); at 50 ms, 31%")
	return t, nil
}

// Fig6b reproduces Figure 6(b): one-time migration vs clairvoyant
// ∞-migration, constrained to each geographic grouping. The gap bounds
// the value of sophisticated region-hopping policies.
func (l *Lab) Fig6b(ctx context.Context) (*Table, error) {
	t := &Table{
		ID:      "fig6b",
		Title:   "1-migration vs ∞-migration within geographic groupings",
		Columns: []string{"one_migration_g", "inf_migration_g", "advantage_g"},
	}
	var groups []Grouping
	for _, g := range l.Groupings() {
		if g.Name == "Global" {
			continue // the paper's experiment stays within groupings
		}
		groups = append(groups, g)
	}
	// The ∞-migration envelope scan per grouping is the heavy part;
	// one grouping per cell.
	type cell struct{ oneRed, infRed float64 }
	rows, err := engine.Map(ctx, l.opts.Workers, len(groups), func(_ context.Context, i int) (cell, error) {
		g := groups[i]
		_, destMean, err := spatial.LowestMeanRegion(l.Set, g.Codes)
		if err != nil {
			return cell{}, err
		}
		min, err := spatial.MinSeries(l.Set, g.Codes)
		if err != nil {
			return cell{}, err
		}
		envelope := stats.Mean(min)
		oneRed := MeanOver(g.Codes, func(code string) float64 {
			return l.Set.MustGet(code).Mean() - destMean
		})
		infRed := MeanOver(g.Codes, func(code string) float64 {
			return l.Set.MustGet(code).Mean() - envelope
		})
		return cell{oneRed, infRed}, nil
	})
	if err != nil {
		return nil, err
	}
	var worst float64
	for i, g := range groups {
		adv := rows[i].infRed - rows[i].oneRed
		if adv > worst {
			worst = adv
		}
		t.AddRow(g.Name, rows[i].oneRed, rows[i].infRed, adv)
	}
	t.Notes = append(t.Notes, fmt.Sprintf(
		"largest ∞-migration advantage: %.1f g (paper: < 10 g — one migration captures nearly everything)", worst))
	return t, nil
}
