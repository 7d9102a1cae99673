package core

import (
	"bytes"
	"context"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"carbonshift/internal/golden"
	"carbonshift/internal/regions"
	"carbonshift/internal/simgrid"
)

// miniOptions is a small dataset (12 regions, ~6 weeks of arrivals) used
// to exercise every experiment path quickly.
func miniOptions(seed uint64, workers int) Options {
	var regs []regions.Region
	for _, c := range []string{"SE", "US-CA", "US-VA", "IN-WE", "HK", "DE", "FR", "AU-NSW", "BR-CS", "ZA", "CA-ON", "NL"} {
		regs = append(regs, regions.MustByCode(c))
	}
	return Options{Sim: simgrid.Config{Seed: seed, Hours: 8784 + 8760 + 8760}, Regions: regs, ArrivalSpan: 1000, Stride: 211, Workers: workers}
}

// miniLab is the mini lab at seed 2, built once and shared.
var miniLab = sync.OnceValue(func() *Lab {
	l, err := NewLabCtx(context.Background(), miniOptions(2, 0))
	if err != nil {
		panic(err)
	}
	return l
})

func mini(*testing.T) *Lab { return miniLab() }

func TestNewLabDefaults(t *testing.T) {
	l := mini(t)
	if l.Set.Size() != 12 {
		t.Fatalf("mini lab has %d regions", l.Set.Size())
	}
	if l.GlobalMean <= 0 {
		t.Fatalf("global mean = %v", l.GlobalMean)
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

// TestExperimentWorlds holds each entry to its world: a paper
// experiment runs on the caller's lab, and policies on its three regions
// over 60 days at the caller's seed and worker bound, where it gives the
// digest TestExperimentTablesGolden records from the mini lab. The file
// is only compared here: that test is its one writer.
func TestExperimentWorlds(t *testing.T) {
	in := miniOptions(2, 0)
	for _, e := range Experiments() {
		if got := e.Options(in); !reflect.DeepEqual(got, in) {
			t.Errorf("%s: Options(mini) = %+v, want the mini options unchanged", e.ID, got)
		}
	}
	e, err := ExperimentByID("policies")
	if err != nil {
		t.Fatal(err)
	}
	want := Options{Sim: simgrid.Config{Seed: 2, Hours: 1440}, Workers: in.Workers}
	for _, code := range []string{"DE", "SE", "US-CA"} {
		want.Regions = append(want.Regions, regions.MustByCode(code))
	}
	o := e.Options(in)
	if !reflect.DeepEqual(o, want) {
		t.Fatalf("policies: Options(mini) = %+v, want %+v", o, want)
	}
	l, err := NewLabCtx(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	golden.Frozen(t, "study_tables.golden", tableDigests(t, l, Studies()))
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
	for _, e := range append(Experiments(), Studies()...) {
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
	// The Claims section has a row per claim. On the mini lab exactly one
	// fails: 50 % idle capacity removes 65 %, over the 60 % ceiling.
	_, section, _ := strings.Cut(s, "\n## Claims\n")
	rows := strings.Split(strings.TrimSpace(section), "\n")
	if len(rows) != len(claims)+2 {
		t.Fatalf("Claims section has %d lines for %d claims", len(rows), len(claims))
	}
	var fails []string
	for i, c := range claims {
		row := rows[i+2]
		if !strings.HasPrefix(row, "| "+c.name+" | ") || !strings.Contains(row, " | "+c.quantity+" | ") {
			t.Errorf("Claims row %d = %q, want claim %s, %s", i, row, c.name, c.quantity)
		}
		if strings.HasSuffix(row, " (fails) |") {
			fails = append(fails, row)
		}
	}
	if len(fails) != 1 || !strings.HasPrefix(fails[0], "| CapacityConstrained | Figure 5(c) | idle_50% reduction_pct | 65.29 |") {
		t.Errorf("failing Claims rows = %q, want only CapacityConstrained's idle_50%%", fails)
	}
	// A missing cell fails its row, unless the bound admits an absent one.
	tbl := &Table{ID: "x", Columns: []string{"a"}}
	for _, b := range []bound{atLeast(0), atLeast(0).orAbsent()} {
		if _, _, pass := (claim{b: b, read: cell("r", "a")}).eval(tbl); pass != b.absentOK {
			t.Errorf("a missing cell under %s: pass = %v", b, pass)
		}
	}
}

func TestExperimentByID(t *testing.T) {
	for _, id := range []string{"fig5a", "policies"} {
		if e, err := ExperimentByID(id); err != nil || e.ID != id {
			t.Fatalf("lookup %s = %+v, %v", id, e, err)
		}
	}
	if _, err := ExperimentByID("nope"); err == nil || !strings.Contains(err.Error(), " policies") {
		t.Fatalf("unknown id: err = %v, want a refusal listing the studies", err)
	}
}

// TestExperimentIDsUnique covers experiments and studies together: one
// -exp namespace, so a study cannot shadow an experiment.
func TestExperimentIDsUnique(t *testing.T) {
	seen := make(map[string]bool)
	for _, e := range append(Experiments(), Studies()...) {
		if seen[e.ID] {
			t.Fatalf("duplicate experiment id %s", e.ID)
		}
		seen[e.ID] = true
		if e.run == nil || e.Title == "" || e.Figure == "" {
			t.Fatalf("experiment %s incomplete", e.ID)
		}
	}
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

// TestHeadline holds the complete 123-region, 3-year lab at seed 1 to
// the paper's headline claims (claims.go), one subtest per finding. Each
// experiment a claim reads runs once; every row logs value and margin.
func TestHeadline(t *testing.T) {
	if testing.Short() {
		t.Skip("full lab skipped in -short mode")
	}
	l, err := NewLabCtx(context.Background(), Options{Sim: simgrid.Config{Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	tables := map[string]*Table{}
	for i, finding := range claims {
		if slices.IndexFunc(claims, func(c claim) bool { return c.name == finding.name }) < i {
			continue // the finding's subtest ran
		}
		t.Run(finding.name, func(t *testing.T) {
			for _, c := range claims {
				if c.name != finding.name {
					continue
				}
				if tables[c.exp] == nil {
					e, err := ExperimentByID(c.exp)
					if err != nil {
						t.Fatal(err)
					}
					if tables[c.exp], err = e.Run(context.Background(), l); err != nil {
						t.Fatal(err)
					}
				}
				v, margin, pass := c.eval(tables[c.exp])
				t.Logf("%s %s = %s (paper %q), bound %s, margin %s", c.exp, c.quantity, claimNum(v), c.paper, c.b, claimNum(margin))
				if !pass {
					t.Errorf("%s %s = %s is outside %s", c.exp, c.quantity, claimNum(v), c.b)
				}
			}
		})
	}
}
