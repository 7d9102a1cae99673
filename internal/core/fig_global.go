package core

import (
	"context"
	"fmt"
	"sort"

	"carbonshift/internal/engine"
	"carbonshift/internal/fft"
	"carbonshift/internal/regions"
	"carbonshift/internal/stats"
)

// exampleRegions are the three grids of Figure 1: low-mean/high-var
// California, very low and stable Ontario, and high and flat Mumbai.
var exampleRegions = []string{"US-CA", "CA-ON", "IN-WE"}

// Fig1 reproduces Figure 1: example carbon traces (a) and generation
// mixes (b) for California, Ontario, and Mumbai. Rows carry the trace
// statistics plus the full mix, one column per source.
func (l *Lab) Fig1(context.Context) (*Table, error) {
	t := &Table{
		ID:    "fig1",
		Title: "Example carbon traces and generation mixes (California, Ontario, Mumbai)",
		Columns: []string{"mean", "min", "max", "daily_cv",
			"coal", "gas", "oil", "biomass", "geothermal", "solar", "hydro", "wind", "nuclear"},
	}
	loInst, hiInst := 0.0, 0.0
	tempRatio := 0.0
	for _, code := range l.pickExamples() {
		tr, ok := l.Set.Get(code)
		if !ok {
			return nil, fmt.Errorf("core: example region %q missing", code)
		}
		reg, ok := regions.ByCode(code)
		if !ok {
			return nil, fmt.Errorf("core: example region %q not in catalog", code)
		}
		mn, mx := stats.MinMax(tr.CI)
		vals := []float64{tr.Mean(), mn, mx, stats.DailyCV(tr.CI)}
		for s := 0; s < regions.NumSources; s++ {
			vals = append(vals, reg.Mix[regions.Source(s)])
		}
		t.AddRow(code, vals...)
		if loInst == 0 || mn < loInst {
			loInst = mn
		}
		if mx > hiInst {
			hiInst = mx
		}
		if mn > 0 && mx/mn > tempRatio {
			tempRatio = mx / mn
		}
	}
	if loInst > 0 {
		t.Notes = append(t.Notes, fmt.Sprintf(
			"instantaneous spatial spread across examples: %.0fx (paper: up to 43x between Ontario and Mumbai); largest temporal swing within one region: %.1fx (paper: 2x over a day in California)",
			hiInst/loInst, tempRatio))
	}
	return t, nil
}

func (l *Lab) pickExamples() []string {
	var out []string
	for _, code := range exampleRegions {
		if _, ok := l.Set.Get(code); ok {
			out = append(out, code)
		}
	}
	if len(out) == 0 {
		out = l.Set.Regions()
		if len(out) > 3 {
			out = out[:3]
		}
	}
	return out
}

// Fig3a reproduces Figure 3(a): each region's 2022 mean carbon
// intensity and average daily coefficient of variation, plus the
// quadrant census around the dataset averages.
func (l *Lab) Fig3a(ctx context.Context) (*Table, error) {
	year, err := l.latestFullYear()
	if err != nil {
		return nil, err
	}
	set, err := l.Year(year)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "fig3a",
		Title:   fmt.Sprintf("Mean carbon intensity vs average daily CV, %d", year),
		Columns: []string{"mean_ci", "daily_cv"},
	}
	codes := set.Regions()
	type cell struct{ m, cv float64 }
	rows, err := engine.Map(ctx, l.workers, len(codes), func(_ context.Context, i int) (cell, error) {
		tr := set.MustGet(codes[i])
		return cell{tr.Mean(), stats.DailyCV(tr.CI)}, nil
	})
	if err != nil {
		return nil, err
	}
	var means, cvs []float64
	for i, code := range codes {
		t.AddRow(code, rows[i].m, rows[i].cv)
		means = append(means, rows[i].m)
		cvs = append(cvs, rows[i].cv)
	}
	meanCI, meanCV := stats.Mean(means), stats.Mean(cvs)
	var q [4]int // [low-low, low-high, high-low, high-high] (CI, CV)
	lowVar := 0
	above400 := 0
	for i := range means {
		hiCI, hiCV := means[i] > meanCI, cvs[i] > meanCV
		switch {
		case !hiCI && !hiCV:
			q[0]++
		case !hiCI && hiCV:
			q[1]++
		case hiCI && !hiCV:
			q[2]++
		default:
			q[3]++
		}
		if cvs[i] < 0.1 {
			lowVar++
		}
		if means[i] > 400 {
			above400++
		}
	}
	n := len(means)
	t.Notes = append(t.Notes,
		fmt.Sprintf("dataset mean CI %.1f g/kWh (paper: 368.39), mean daily CV %.3f", meanCI, meanCV),
		fmt.Sprintf("quadrants (CI x CV): low-low %d, low-high %d, high-low %d, high-high %d", q[0], q[1], q[2], q[3]),
		fmt.Sprintf("%d/%d regions (%.0f%%) above 400 g (paper: ~46%%)", above400, n, 100*float64(above400)/float64(n)),
		fmt.Sprintf("%d/%d regions (%.0f%%) with daily CV < 0.1 (paper: >70%%)", lowVar, n, 100*float64(lowVar)/float64(n)),
	)
	return t, nil
}

// Fig3b reproduces Figure 3(b): per-region change in mean CI and daily
// CV between the first and last study years, clustered with k-means++
// (k=3) as in the paper.
func (l *Lab) Fig3b(ctx context.Context) (*Table, error) {
	firstYear, lastYear, err := l.yearRange()
	if err != nil {
		return nil, err
	}
	first, err := l.Year(firstYear)
	if err != nil {
		return nil, err
	}
	last, err := l.Year(lastYear)
	if err != nil {
		return nil, err
	}
	codes := l.Set.Regions()
	points, err := engine.Map(ctx, l.workers, len(codes), func(_ context.Context, i int) (stats.Point, error) {
		f, la := first.MustGet(codes[i]), last.MustGet(codes[i])
		return stats.Point{
			X: la.Mean() - f.Mean(),
			Y: stats.DailyCV(la.CI) - stats.DailyCV(f.CI),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	km, err := stats.KMeans(points, 3, l.opts.Sim.Seed+1)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "fig3b",
		Title:   fmt.Sprintf("Change in mean CI and daily CV, %d to %d (k-means++ k=3)", firstYear, lastYear),
		Columns: []string{"delta_mean_ci", "delta_daily_cv", "cluster"},
	}
	greener, browner := 0, 0
	for i, code := range codes {
		t.AddRow(code, points[i].X, points[i].Y, float64(km.Assign[i]))
		switch {
		case points[i].X < -25:
			greener++
		case points[i].X > 25:
			browner++
		}
	}
	n := len(codes)
	flat := n - greener - browner
	t.Notes = append(t.Notes,
		fmt.Sprintf("greener (ΔCI < -25 g): %d (%.0f%%, paper ~23%%); browner (ΔCI > +25 g): %d (%.0f%%, paper ~20%%); unchanged: %d (%.0f%%, paper ~57%%)",
			greener, 100*float64(greener)/float64(n),
			browner, 100*float64(browner)/float64(n),
			flat, 100*float64(flat)/float64(n)),
	)
	return t, nil
}

// Fig4 reproduces Figure 4: periodicity scores at the 24-hour and
// 168-hour periods for the regions hosting hyperscale datacenters,
// ordered by ascending mean carbon intensity.
func (l *Lab) Fig4(ctx context.Context) (*Table, error) {
	year, err := l.latestFullYear()
	if err != nil {
		return nil, err
	}
	set, err := l.Year(year)
	if err != nil {
		return nil, err
	}
	var codes []string
	for _, r := range l.Regions {
		if r.Providers.Hyperscale() {
			codes = append(codes, r.Code)
		}
	}
	if len(codes) == 0 {
		codes = l.Set.Regions()
	}
	if len(codes) > 40 {
		codes = codes[:40]
	}
	means := regionMeans(set, codes)
	sort.Slice(codes, func(a, b int) bool { return means[codes[a]] < means[codes[b]] })

	t := &Table{
		ID:      "fig4",
		Title:   fmt.Sprintf("Periodicity scores for %d datacenter regions, %d (ordered by mean CI)", len(codes), year),
		Columns: []string{"mean_ci", "score_24h", "score_168h"},
	}
	// The two Bluestein FFTs per region dominate this figure; fan them
	// across the pool, one region per cell.
	type cell struct{ mean, s24, s168 float64 }
	rows, err := engine.Map(ctx, l.workers, len(codes), func(_ context.Context, i int) (cell, error) {
		tr := set.MustGet(codes[i])
		return cell{tr.Mean(), fft.ScoreAt(tr.CI, 24), fft.ScoreAt(tr.CI, 168)}, nil
	})
	if err != nil {
		return nil, err
	}
	daily := 0
	for i, code := range codes {
		t.AddRow(code, rows[i].mean, rows[i].s24, rows[i].s168)
		if rows[i].s24 >= 0.5 {
			daily++
		}
	}
	t.Notes = append(t.Notes, fmt.Sprintf(
		"%d/%d regions show a 24h period with score >= 0.5 (paper: 35/40)", daily, len(codes)))
	return t, nil
}

// latestFullYear returns the last calendar year fully covered by the
// trace set.
func (l *Lab) latestFullYear() (int, error) {
	_, last, err := l.yearRange()
	return last, err
}

// yearRange returns the first and last fully covered calendar years.
func (l *Lab) yearRange() (int, int, error) {
	start := l.Set.Start()
	first := start.Year()
	if start.Month() != 1 || start.Day() != 1 || start.Hour() != 0 {
		first++
	}
	last := first
	for y := first; ; y++ {
		if _, err := l.Set.Year(y); err != nil {
			break
		}
		last = y
	}
	if _, err := l.Set.Year(first); err != nil {
		return 0, 0, fmt.Errorf("core: trace covers no full calendar year")
	}
	return first, last, nil
}
