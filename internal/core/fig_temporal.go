package core

import (
	"context"
	"fmt"

	"carbonshift/internal/workload"
)

// figSlackIdeal and figSlackPractical are the two slack settings the
// Figure 7–9 family contrasts: a one-year slack (clairvoyant upper
// bound) and the 24-hour slack the paper calls realistic.
const (
	figSlackIdeal     = workload.Slack1Y
	figSlackPractical = workload.Slack24H
)

// lengthsFor clamps the Table 1 job lengths to what the lab's trace
// can sweep (small test labs use short traces).
func (l *Lab) lengthsFor(slack int) []int {
	var out []int
	for _, length := range workload.BatchLengths {
		if l.arrivals(length+slack) >= 1 {
			out = append(out, length)
		}
	}
	return out
}

// slackFor clamps a slack to the lab's trace.
func (l *Lab) slackFor(slack int) int {
	for slack > 0 && l.arrivals(1+slack) < 1 {
		slack /= 2
	}
	return slack
}

// Fig7 reproduces Figure 7: carbon reduction from deferrability,
// normalized by job length, for one-year and 24-hour slack.
func (l *Lab) Fig7(ctx context.Context) (*Table, error) {
	return l.perLengthTable(ctx, "fig7",
		"Deferrability savings per unit job length (g·CO₂eq per job-hour)",
		func(ms meanSavingsPerUnit) (float64, float64) {
			return ms.deferIdeal, ms.deferPractical
		},
		"paper: 1h jobs save ~154 g/h and 168h jobs ~70 g/h with one-year slack; 57 -> 3 g/h with 24h slack")
}

// Fig8 reproduces Figure 8: the additional reduction from
// interruptibility on top of deferrability, per unit job length.
func (l *Lab) Fig8(ctx context.Context) (*Table, error) {
	return l.perLengthTable(ctx, "fig8",
		"Additional interruptibility savings per unit job length (g·CO₂eq per job-hour)",
		func(ms meanSavingsPerUnit) (float64, float64) {
			return ms.intrIdeal, ms.intrPractical
		},
		"paper: grows 0 -> 43 g/h with job length under one-year slack; peaks ~18 g at 24h jobs under 24h slack")
}

// Fig9 reproduces Figure 9: the combined deferral+interruption savings
// as a percentage of the global average intensity.
func (l *Lab) Fig9(ctx context.Context) (*Table, error) {
	t, err := l.perLengthTable(ctx, "fig9",
		"Combined temporal savings relative to global average intensity (%)",
		func(ms meanSavingsPerUnit) (float64, float64) {
			return 100 * (ms.deferIdeal + ms.intrIdeal) / l.GlobalMean,
				100 * (ms.deferPractical + ms.intrPractical) / l.GlobalMean
		},
		"paper: a 168h job saves 19% from deferrability plus ~11% from interruptibility ideally, but only ~3% with 24h slack")
	return t, err
}

// meanSavingsPerUnit carries global per-job-hour savings for one job
// length under the two slack settings.
type meanSavingsPerUnit struct {
	deferIdeal, intrIdeal         float64
	deferPractical, intrPractical float64
}

func (l *Lab) perLengthTable(ctx context.Context, id, title string, pick func(meanSavingsPerUnit) (float64, float64), note string) (*Table, error) {
	ideal := l.slackFor(figSlackIdeal)
	practical := l.slackFor(figSlackPractical)
	t := &Table{
		ID:      id,
		Title:   title,
		Columns: []string{"one_year_slack", "24h_slack"},
	}
	// Fan every (region, length, slack) cell across the worker pool,
	// then assemble the table from pure cache hits in a fixed order.
	if err := l.FillTemporalGrid(ctx, l.lengthsFor(ideal), []int{ideal, practical}); err != nil {
		return nil, err
	}
	codes := l.Set.Regions()
	for _, length := range l.lengthsFor(ideal) {
		var ms meanSavingsPerUnit
		for _, code := range codes {
			ci, err := l.TemporalCell(code, length, ideal)
			if err != nil {
				return nil, err
			}
			cp, err := l.TemporalCell(code, length, practical)
			if err != nil {
				return nil, err
			}
			fl := float64(length)
			ms.deferIdeal += ci.DeferSaving / fl
			ms.intrIdeal += ci.InterruptSaving / fl
			ms.deferPractical += cp.DeferSaving / fl
			ms.intrPractical += cp.InterruptSaving / fl
		}
		n := float64(len(codes))
		ms.deferIdeal /= n
		ms.intrIdeal /= n
		ms.deferPractical /= n
		ms.intrPractical /= n
		a, b := pick(ms)
		t.AddRow(fmt.Sprintf("%dh", length), a, b)
	}
	t.Notes = append(t.Notes, note)
	return t, nil
}

// Fig10 reproduces Figure 10(a–c): fleet-level temporal savings under
// the equal, Azure, and Google job-length weightings with one-year
// slack, by geographic grouping.
func (l *Lab) Fig10(ctx context.Context) (*Table, error) {
	ideal := l.slackFor(figSlackIdeal)
	dists := []workload.Distribution{workload.DistEqual, workload.DistAzure, workload.DistGoogle}
	t := &Table{
		ID:      "fig10",
		Title:   "Fleet temporal savings by job-length distribution, one-year slack (g·CO₂eq per job-hour)",
		Columns: []string{"equal", "azure", "google"},
	}
	lengths := l.lengthsFor(ideal)
	if err := l.FillTemporalGrid(ctx, lengths, []int{ideal}); err != nil {
		return nil, err
	}
	// perUnit[code][length] = combined saving per job-hour.
	perUnit := make(map[string]map[int]float64, l.Set.Size())
	for _, code := range l.Set.Regions() {
		perUnit[code] = make(map[int]float64, len(lengths))
		for _, length := range lengths {
			ms, err := l.TemporalCell(code, length, ideal)
			if err != nil {
				return nil, err
			}
			perUnit[code][length] = (ms.DeferSaving + ms.InterruptSaving) / float64(length)
		}
	}
	for _, g := range l.Groupings() {
		vals := make([]float64, len(dists))
		for i, d := range dists {
			vals[i] = MeanOver(g.Codes, func(code string) float64 {
				return d.WeightedMean(perUnit[code])
			})
		}
		t.AddRow(g.Name, vals...)
	}
	t.Notes = append(t.Notes,
		"paper: global 135 g (equal), 100 g (Azure), 112 g (Google); cloud traces save less because long jobs dominate their resource-hours")
	return t, nil
}

// Fig10d reproduces Figure 10(d): global fleet savings as slack sweeps
// from 24 hours to one year (equal job-length weighting).
func (l *Lab) Fig10d(ctx context.Context) (*Table, error) {
	t := &Table{
		ID:      "fig10d",
		Title:   "Fleet temporal savings vs slack (equal weighting, g·CO₂eq per job-hour)",
		Columns: []string{"saving_g", "saving_pct"},
	}
	labels := map[int]string{
		workload.Slack24H: "24h",
		workload.Slack7D:  "7d",
		workload.Slack24D: "24d",
		workload.Slack30D: "30d",
		workload.Slack1Y:  "1y",
	}
	codes := l.Set.Regions()
	// Collect the distinct clamped slacks once, warm every cell in one
	// engine pass, then reduce serially in presentation order.
	type slackRow struct{ raw, clamped int }
	var rows []slackRow
	seen := make(map[int]bool)
	for _, rawSlack := range workload.Slacks {
		slack := l.slackFor(rawSlack)
		if seen[slack] {
			continue // tiny test labs may clamp several slacks together
		}
		seen[slack] = true
		rows = append(rows, slackRow{rawSlack, slack})
	}
	var pairs []cellPair
	for _, r := range rows {
		for _, length := range l.lengthsFor(r.clamped) {
			pairs = append(pairs, cellPair{length, r.clamped})
		}
	}
	if err := l.warmCells(ctx, pairs); err != nil {
		return nil, err
	}
	for _, r := range rows {
		rawSlack, slack := r.raw, r.clamped
		lengths := l.lengthsFor(slack)
		saving := MeanOver(codes, func(code string) float64 {
			vals := make(map[int]float64, len(lengths))
			for _, length := range lengths {
				ms, err := l.TemporalCell(code, length, slack)
				if err != nil {
					return 0
				}
				vals[length] = (ms.DeferSaving + ms.InterruptSaving) / float64(length)
			}
			return workload.DistEqual.WeightedMean(vals)
		})
		label := labels[rawSlack]
		if slack != rawSlack {
			label = fmt.Sprintf("%dh", slack)
		}
		t.AddRow(label, saving, 100*saving/l.GlobalMean)
	}
	t.Notes = append(t.Notes,
		"paper: 31 g at 24h slack to 127 g at one year — 365x more slack buys only ~3.1x more savings (sub-linear), with little gain beyond 7 days")
	return t, nil
}
