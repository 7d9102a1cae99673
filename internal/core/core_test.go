package core

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"carbonshift/internal/regions"
	"carbonshift/internal/simgrid"
)

// fullLab is the complete 123-region, 3-year dataset; generated once
// and shared by the headline-calibration tests.
var (
	fullOnce sync.Once
	fullLab  *Lab
)

func full(t *testing.T) *Lab {
	t.Helper()
	if testing.Short() {
		t.Skip("full lab skipped in -short mode")
	}
	fullOnce.Do(func() {
		var err error
		fullLab, err = NewLabCtx(context.Background(), Options{Sim: simgrid.Config{Seed: 1}})
		if err != nil {
			panic(err)
		}
	})
	return fullLab
}

// miniLab is a small dataset (12 regions, ~6 weeks of arrivals) used
// to exercise every experiment path quickly.
var (
	miniOnce sync.Once
	miniLab  *Lab
)

// miniLabSim is the mini lab's simulator configuration at a given
// seed, shared with the multi-seed integration test.
func miniLabSim(seed uint64) simgrid.Config {
	return simgrid.Config{Seed: seed, Hours: 8784 + 8760 + 8760}
}

func mini(t *testing.T) *Lab {
	t.Helper()
	miniOnce.Do(func() {
		codes := []string{"SE", "US-CA", "US-VA", "IN-WE", "HK", "DE", "FR",
			"AU-NSW", "BR-CS", "ZA", "CA-ON", "NL"}
		var regs []regions.Region
		for _, c := range codes {
			regs = append(regs, regions.MustByCode(c))
		}
		var err error
		miniLab, err = NewLabCtx(context.Background(), Options{
			Sim:         miniLabSim(2),
			Regions:     regs,
			ArrivalSpan: 1000,
			Stride:      211,
		})
		if err != nil {
			panic(err)
		}
	})
	return miniLab
}

func TestNewLabDefaults(t *testing.T) {
	l := mini(t)
	if l.Set.Size() != 12 {
		t.Fatalf("mini lab has %d regions", l.Set.Size())
	}
	if l.GlobalMean <= 0 {
		t.Fatalf("global mean = %v", l.GlobalMean)
	}
	if len(l.Latency.Codes()) != 12 {
		t.Fatalf("latency matrix covers %d regions", len(l.Latency.Codes()))
	}
	// Only zero means "default": a negative option is refused, not run
	// with the default.
	for name, opts := range map[string]Options{
		"span": {ArrivalSpan: -5}, "stride": {Stride: -1}, "workers": {Workers: -1},
	} {
		opts.Regions = l.Regions[:1]
		if _, err := NewLabCtx(context.Background(), opts); err == nil {
			t.Errorf("NewLabCtx accepted a negative %s", name)
		}
	}
}

func TestGroupings(t *testing.T) {
	l := mini(t)
	gs := l.Groupings()
	if gs[0].Name != "Global" || len(gs[0].Codes) != 12 {
		t.Fatalf("first grouping = %+v", gs[0])
	}
	total := 0
	for _, g := range gs[1:] {
		total += len(g.Codes)
	}
	if total != 12 {
		t.Fatalf("continent groupings cover %d regions, want 12", total)
	}
}

func TestTemporalCellCaching(t *testing.T) {
	l := mini(t)
	a, err := l.TemporalCell("SE", 6, 24)
	if err != nil {
		t.Fatal(err)
	}
	b, err := l.TemporalCell("SE", 6, 24)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("cached cell differs")
	}
	if a.DeferSaving < 0 || a.InterruptSaving < 0 {
		t.Fatalf("negative savings: %+v", a)
	}
	if _, err := l.TemporalCell("NOPE", 6, 24); err == nil {
		t.Fatal("unknown region accepted")
	}
}

func TestFillTemporalGrid(t *testing.T) {
	l := mini(t)
	if err := l.FillTemporalGrid(context.Background(), []int{1, 24}, []int{24}); err != nil {
		t.Fatal(err)
	}
	// All cells present without further computation.
	for _, code := range l.Set.Regions() {
		for _, length := range []int{1, 24} {
			if _, err := l.TemporalCell(code, length, 24); err != nil {
				t.Fatalf("cell %s/%d missing: %v", code, length, err)
			}
		}
	}
}

func TestAllExperimentsRunOnMiniLab(t *testing.T) {
	l := mini(t)
	for _, e := range Experiments() {
		tbl, err := e.Run(context.Background(), l)
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		if tbl.ID != e.ID {
			t.Errorf("%s produced table id %s", e.ID, tbl.ID)
		}
		if len(tbl.Rows) == 0 {
			t.Errorf("%s produced no rows", e.ID)
		}
		for _, r := range tbl.Rows {
			if len(r.Values) != len(tbl.Columns) {
				t.Errorf("%s row %s has %d values for %d columns", e.ID, r.Label, len(r.Values), len(tbl.Columns))
			}
		}
		// Tables must render and serialize.
		if s := tbl.String(); !strings.Contains(s, e.ID) {
			t.Errorf("%s String() lacks id", e.ID)
		}
		var buf bytes.Buffer
		if err := tbl.WriteCSV(&buf); err != nil {
			t.Errorf("%s CSV: %v", e.ID, err)
		}
	}
}

func TestWriteReport(t *testing.T) {
	l := mini(t)
	var buf bytes.Buffer
	if err := l.WriteReport(context.Background(), &buf); err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	if !strings.Contains(s, "carbonshift experiment report") {
		t.Fatal("report missing title")
	}
	for _, e := range Experiments() {
		if !strings.Contains(s, "`"+e.ID+"`") {
			t.Errorf("report missing experiment %s", e.ID)
		}
	}
	// Long tables are truncated, not dumped wholesale.
	if strings.Count(s, "\n") > 2500 {
		t.Fatalf("report suspiciously long: %d lines", strings.Count(s, "\n"))
	}
}

func TestExperimentByID(t *testing.T) {
	e, err := ExperimentByID("fig5a")
	if err != nil || e.ID != "fig5a" {
		t.Fatalf("lookup = %+v, %v", e, err)
	}
	if _, err := ExperimentByID("nope"); err == nil {
		t.Fatal("unknown id accepted")
	}
}

func TestExperimentIDsUnique(t *testing.T) {
	seen := make(map[string]bool)
	for _, e := range Experiments() {
		if seen[e.ID] {
			t.Fatalf("duplicate experiment id %s", e.ID)
		}
		seen[e.ID] = true
		if e.run == nil || e.Title == "" || e.Figure == "" {
			t.Fatalf("experiment %s incomplete", e.ID)
		}
	}
}

// MustValue is Value for cells a test knows exist; it panics otherwise.
func (t *Table) MustValue(rowLabel, column string) float64 {
	v, ok := t.Value(rowLabel, column)
	if !ok {
		panic(fmt.Sprintf("core: table %s has no cell (%q, %q)", t.ID, rowLabel, column))
	}
	return v
}

func TestTableHelpers(t *testing.T) {
	tbl := &Table{ID: "x", Title: "t", Columns: []string{"a", "b"}}
	tbl.AddRow("r1", 1, 2)
	if v, ok := tbl.Value("r1", "b"); !ok || v != 2 {
		t.Fatalf("Value = %v, %v", v, ok)
	}
	if _, ok := tbl.Value("r1", "nope"); ok {
		t.Fatal("unknown column found")
	}
	if _, ok := tbl.Value("nope", "a"); ok {
		t.Fatal("unknown row found")
	}
	if got := tbl.MustValue("r1", "a"); got != 1 {
		t.Fatalf("MustValue = %v", got)
	}
}

func TestTableAddRowPanicsOnArity(t *testing.T) {
	tbl := &Table{ID: "x", Columns: []string{"a"}}
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	tbl.AddRow("r", 1, 2)
}

func TestTableMustValuePanics(t *testing.T) {
	tbl := &Table{ID: "x", Columns: []string{"a"}}
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	tbl.MustValue("r", "a")
}

// --- Headline calibration on the full dataset ---
// These encode the paper's key quantitative claims; tolerances admit
// the synthetic-trace substitution while pinning the shape of every
// result (see EXPERIMENTS.md).

func TestHeadlineIdealSpatial(t *testing.T) {
	l := full(t)
	tbl, err := l.Fig5a(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	pct := tbl.MustValue("Global", "reduction_pct")
	if pct < 90 || pct > 99 {
		t.Fatalf("ideal spatial reduction = %.1f%%, paper reports 96%%", pct)
	}
	asia := tbl.MustValue("Asia", "reduction_g")
	europe := tbl.MustValue("Europe", "reduction_g")
	if asia <= europe {
		t.Fatalf("Asia (%.0f) should gain more than Europe (%.0f)", asia, europe)
	}
}

func TestHeadlineCapacityConstrained(t *testing.T) {
	l := full(t)
	tbl, err := l.Fig5c(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	half := tbl.MustValue("idle_50%", "reduction_pct")
	if half < 40 || half > 60 {
		t.Fatalf("50%% idle reduction = %.1f%%, paper reports 51.5%%", half)
	}
	max := tbl.MustValue("idle_99%", "reduction_pct")
	if max < 90 {
		t.Fatalf("99%% idle reduction = %.1f%%, paper reports 95.68%%", max)
	}
	if zero := tbl.MustValue("idle_0%", "reduction_pct"); zero != 0 {
		t.Fatalf("0%% idle reduction = %.1f%%", zero)
	}
}

func TestHeadlineLatency(t *testing.T) {
	l := full(t)
	tbl, err := l.Fig6a(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// Reductions grow with the SLO, and capacity constraints always
	// cost something once migration is possible.
	prevInf := -1.0
	for _, r := range tbl.Rows {
		inf := r.Values[0]
		util := r.Values[1]
		if inf < prevInf-1e-9 {
			t.Fatalf("infinite-capacity reduction not monotone at %s", r.Label)
		}
		if util > inf+1e-9 {
			t.Fatalf("constrained beats unconstrained at %s", r.Label)
		}
		prevInf = inf
	}
	full250 := tbl.MustValue("slo_250ms", "pct_infinite_capacity")
	if full250 < 85 {
		t.Fatalf("250ms reduction = %.1f%%, paper reports 92.5%%", full250)
	}
}

func TestHeadlineOneVsInfMigration(t *testing.T) {
	l := full(t)
	tbl, err := l.Fig6b(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range tbl.Rows {
		adv := r.Values[2]
		if adv < -1e-9 {
			t.Fatalf("%s: ∞-migration worse than 1-migration (%v)", r.Label, adv)
		}
		if adv > 12 {
			t.Fatalf("%s: ∞-migration advantage %v g, paper bounds it below 10 g", r.Label, adv)
		}
	}
}

func TestHeadlineTemporalShape(t *testing.T) {
	l := full(t)
	fig7, err := l.Fig7(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// Deferral savings per unit fall with job length, in both slack
	// settings; the ideal 1h saving is large, the practical 168h
	// saving is nearly nothing.
	first := fig7.Rows[0]
	last := fig7.Rows[len(fig7.Rows)-1]
	if first.Values[0] <= last.Values[0] {
		t.Fatal("ideal deferral savings should fall with job length")
	}
	if first.Values[0] < 60 {
		t.Fatalf("1h ideal deferral saving = %.1f g, paper reports ~154 g", first.Values[0])
	}
	if last.Values[1] > 10 {
		t.Fatalf("168h practical deferral saving = %.1f g, paper reports ~3 g", last.Values[1])
	}

	fig8, err := l.Fig8(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if v := fig8.MustValue("1h", "one_year_slack"); v < -1e-6 || v > 1e-6 {
		t.Fatalf("1h interruption saving = %v, want 0 (hourly granularity)", v)
	}
	if fig8.MustValue("168h", "one_year_slack") <= fig8.MustValue("6h", "one_year_slack") {
		t.Fatal("ideal interruption savings should grow with job length")
	}
	// Practical setting peaks at 24h jobs (paper: 18.4 g).
	peak := fig8.MustValue("24h", "24h_slack")
	if peak <= fig8.MustValue("1h", "24h_slack") || peak <= fig8.MustValue("168h", "24h_slack") {
		t.Fatal("practical interruption savings should peak at 24h jobs")
	}
	if peak < 8 || peak > 35 {
		t.Fatalf("24h practical interruption saving = %.1f g, paper reports 18.4 g", peak)
	}
}

func TestHeadlineDistributions(t *testing.T) {
	l := full(t)
	tbl, err := l.Fig10(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	equal := tbl.MustValue("Global", "equal")
	azure := tbl.MustValue("Global", "azure")
	google := tbl.MustValue("Global", "google")
	if equal < 70 || equal > 170 {
		t.Fatalf("equal-mix fleet saving = %.1f g, paper reports 135 g", equal)
	}
	if azure >= equal || google >= equal {
		t.Fatalf("cloud traces (%.0f, %.0f) must save less than the equal mix (%.0f)", azure, google, equal)
	}
	if oceania := tbl.MustValue("Oceania", "equal"); oceania <= tbl.MustValue("Asia", "equal") {
		t.Fatalf("Oceania (%.0f) should beat Asia (%.0f) on temporal savings", oceania, tbl.MustValue("Asia", "equal"))
	}
}

func TestHeadlineSlackSublinear(t *testing.T) {
	l := full(t)
	tbl, err := l.Fig10d(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	s24 := tbl.MustValue("24h", "saving_g")
	s1y := tbl.MustValue("1y", "saving_g")
	if s1y <= s24 {
		t.Fatal("more slack must not reduce savings")
	}
	// 365x the slack must yield far less than 365x the savings.
	if ratio := s1y / s24; ratio > 10 {
		t.Fatalf("slack scaling ratio = %.1fx, paper reports ~3.1x (sub-linear)", ratio)
	}
	prev := 0.0
	for _, r := range tbl.Rows {
		if r.Values[0] < prev-1e-9 {
			t.Fatalf("savings fell at %s", r.Label)
		}
		prev = r.Values[0]
	}
}

func TestHeadlineMixedWorkloadLinear(t *testing.T) {
	l := full(t)
	tbl, err := l.Fig11a(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	zero := tbl.MustValue("migratable_0%", "reduction_g")
	fullRed := tbl.MustValue("migratable_100%", "reduction_g")
	halfRed := tbl.MustValue("migratable_50%", "reduction_g")
	if zero != 0 {
		t.Fatalf("0%% migratable reduction = %v", zero)
	}
	if diff := halfRed - fullRed/2; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("mixed-workload reductions not linear: half=%v full=%v", halfRed, fullRed)
	}
}

func TestHeadlineSpatialDominatesTemporal(t *testing.T) {
	l := full(t)
	tbl, err := l.Fig12(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	se := tbl.MustValue("SE", "net_1y")
	if se < 200 {
		t.Fatalf("Sweden net saving = %.1f g, expected dominant spatial gains", se)
	}
	for _, dest := range []string{"US-UT", "IN-WE"} {
		if net, ok := tbl.Value(dest, "net_1y"); ok && net >= 0 {
			t.Fatalf("%s net saving = %.1f g, expected negative (dirtier than average origin)", dest, net)
		}
	}
	// Temporal savings never flip the sign of a strongly negative
	// spatial term (the paper's "spatial dominates" takeaway).
	for _, r := range tbl.Rows {
		spatial := r.Values[0]
		net := r.Values[2]
		if spatial < -100 && net > 0 {
			t.Fatalf("%s: temporal flipped a big negative spatial term", r.Label)
		}
	}
}

// The abstract's last finding: as grids add renewables, both curves
// fall and the carbon-aware advantage over doing nothing shrinks — for
// temporal shifting within a region (Fig. 11c) and for spatial shifting
// across the world (Fig. 11d) alike.
func TestHeadlineGreenerGridShrinksGap(t *testing.T) {
	l := full(t)
	for _, fig := range []func(context.Context) (*Table, error){l.Fig11c, l.Fig11d} {
		tbl, err := fig(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if len(tbl.Rows) != len(greenerSteps) {
			t.Fatalf("%s: %d rows for %d renewable steps", tbl.ID, len(tbl.Rows), len(greenerSteps))
		}
		for i := 1; i < len(tbl.Rows); i++ {
			prev, row := tbl.Rows[i-1], tbl.Rows[i]
			for _, col := range []string{"agnostic_g", "gap_g"} {
				was, now := tbl.MustValue(prev.Label, col), tbl.MustValue(row.Label, col)
				if !(now < was) {
					t.Errorf("%s: %s did not fall from %s (%.2f) to %s (%.2f)",
						tbl.ID, col, prev.Label, was, row.Label, now)
				}
			}
		}
	}
}
