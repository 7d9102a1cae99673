package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"

	"carbonshift/internal/regions"
	"carbonshift/internal/simgrid"
	"carbonshift/internal/stats"
	"carbonshift/internal/temporal"
)

// parallelLab builds a mini lab with the given engine worker bound,
// sharing the mini lab's simulator config (and therefore the
// process-level trace cache).
func parallelLab(t *testing.T, workers int) *Lab {
	t.Helper()
	codes := []string{"SE", "US-CA", "US-VA", "IN-WE", "HK", "DE", "FR",
		"AU-NSW", "BR-CS", "ZA", "CA-ON", "NL"}
	var regs []regions.Region
	for _, c := range codes {
		regs = append(regs, regions.MustByCode(c))
	}
	l, err := NewLabCtx(context.Background(), Options{
		Sim:         miniLabSim(2),
		Regions:     regs,
		ArrivalSpan: 1000,
		Stride:      211,
		Workers:     workers,
	})
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// TestWorkersDeterminism is the engine's core guarantee: every
// experiment's output is byte-identical between the serial reference
// path (-workers 1) and the fanned-out pool (-workers 8).
func TestWorkersDeterminism(t *testing.T) {
	serial := parallelLab(t, 1)
	parallel := parallelLab(t, 8)
	ctx := context.Background()
	for _, e := range Experiments() {
		st, err := e.Run(ctx, serial)
		if err != nil {
			t.Fatalf("%s serial: %v", e.ID, err)
		}
		pt, err := e.Run(ctx, parallel)
		if err != nil {
			t.Fatalf("%s parallel: %v", e.ID, err)
		}
		if st.String() != pt.String() {
			t.Errorf("%s: rendered tables differ between workers=1 and workers=8:\n--- serial ---\n%s\n--- parallel ---\n%s",
				e.ID, st.String(), pt.String())
		}
		var sb, pb bytes.Buffer
		if err := st.WriteCSV(&sb); err != nil {
			t.Fatal(err)
		}
		if err := pt.WriteCSV(&pb); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(sb.Bytes(), pb.Bytes()) {
			t.Errorf("%s: CSV output differs between workers=1 and workers=8", e.ID)
		}
	}
}

// TestExperimentCancellation checks that a cancelled context aborts
// the engine-driven experiments instead of running them to completion.
func TestExperimentCancellation(t *testing.T) {
	l := parallelLab(t, 4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// Every engine-driven experiment must refuse to run; the IDs cover
	// the global scans, the temporal family, the what-ifs, and the
	// extensions.
	for _, id := range []string{"fig3a", "fig4", "fig7", "fig10d", "fig11a", "fig11b", "fig11c", "fig11d", "fig12", "ext-forecast", "ext-overhead"} {
		e, err := ExperimentByID(id)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Run(ctx, l); !errors.Is(err, context.Canceled) {
			t.Errorf("%s under cancelled context: err = %v, want context.Canceled", id, err)
		}
	}
}

// TestNewLabCtxCancellation checks that dataset generation honours the
// context.
func TestNewLabCtxCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// A seed no other test uses, so nothing is already cached.
	if _, err := NewLabCtx(ctx, Options{Sim: miniLabSim(981), Workers: 2}); !errors.Is(err, context.Canceled) {
		t.Errorf("NewLabCtx under cancelled context: err = %v, want context.Canceled", err)
	}
}

// TestFillTemporalGridCancellation covers the warmed-cache path shared
// by the Figure 7–10 family.
func TestFillTemporalGridCancellation(t *testing.T) {
	l := parallelLab(t, 4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := l.FillTemporalGrid(ctx, []int{1}, []int{24}); !errors.Is(err, context.Canceled) {
		t.Errorf("FillTemporalGrid under cancelled context: err = %v, want context.Canceled", err)
	}
}

// TestGreenerFiguresStreamed holds Figure 11(c–d) to what they replaced:
// the tables must equal, to the bit, ones assembled from whole what-if
// trace sets (public Generate, every level, every hour), and the sweeps
// must leave nothing behind — after both figures the process cache
// holds the lab's own catalog and not one what-if trace.
func TestGreenerFiguresStreamed(t *testing.T) {
	simgrid.ResetCache()
	defer simgrid.ResetCache()
	l := parallelLab(t, 4)
	ctx := context.Background()
	got11c, err := l.Fig11c(ctx)
	if err != nil {
		t.Fatal(err)
	}
	got11d, err := l.Fig11d(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, entries := simgrid.CacheStats(); entries != len(l.Regions) {
		t.Errorf("cache holds %d traces after fig11c+fig11d, want the lab's %d", entries, len(l.Regions))
	}

	const length = fig11bLength
	region := l.exampleRegion()
	slack := l.slackFor(figSlackIdeal)
	for i, add := range greenerSteps {
		cfg := l.opts.Sim
		cfg.ExtraRenewables = add
		set, err := simgrid.Generate(l.Regions, cfg)
		if err != nil {
			t.Fatal(err)
		}
		tr := set.MustGet(region)
		label := fmt.Sprintf("renew_+%.0f%%", add*100)

		costs, err := temporal.Sweep(tr.CI, length, slack, l.arrivals(length+slack))
		if err != nil {
			t.Fatal(err)
		}
		agnostic, aware := stats.Mean(costs.Baseline)/length, stats.Mean(costs.Interrupted)/length
		checkRow(t, got11c, i, label, agnostic, aware, agnostic-aware)

		envelope := set.MinSeries()
		agnostic, aware = 0, 0
		arrivals := l.strideArrivals(length)
		for _, a := range arrivals {
			agnostic += tr.Sum(a, a+length)
			for h := a; h < a+length; h++ {
				aware += envelope[h]
			}
		}
		n := float64(len(arrivals)) * length
		checkRow(t, got11d, i, label, agnostic/n, aware/n, (agnostic-aware)/n)
	}
}

func checkRow(t *testing.T, tbl *Table, i int, label string, want ...float64) {
	t.Helper()
	row := tbl.Rows[i]
	if row.Label != label {
		t.Fatalf("%s row %d is %q, want %q", tbl.ID, i, row.Label, label)
	}
	for c, w := range want {
		if row.Values[c] != w {
			t.Errorf("%s %s %s = %v, materialised reference has %v", tbl.ID, label, tbl.Columns[c], row.Values[c], w)
		}
	}
}

// --- Serial vs parallel engine benchmarks ---
//
// One full-catalog lab per worker count; all share the process-level
// trace cache, so only the first pays dataset generation. fig4 (one
// FFT-heavy cell per region) and the fig11a/fig12 what-if sweeps (one
// cell per mixed fleet or destination) memoize nothing inside the Lab,
// so every iteration redoes the whole fan-out and Serial/Parallel8 is
// the engine speedup.

// workerLabs holds the labs by worker count; benchmarks run one at a
// time, so it needs no lock.
var workerLabs = map[int]*Lab{}

func benchEngine(b *testing.B, id string, workers int) {
	l, ok := workerLabs[workers]
	if !ok {
		var err error
		if l, err = NewLabCtx(context.Background(), Options{Sim: simgrid.Config{Seed: 1}, Workers: workers}); err != nil {
			b.Fatal(err)
		}
		workerLabs[workers] = l
	}
	exp, err := ExperimentByID(id)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exp.Run(context.Background(), l); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEngineFig4Serial(b *testing.B)      { benchEngine(b, "fig4", 1) }
func BenchmarkEngineFig4Parallel8(b *testing.B)   { benchEngine(b, "fig4", 8) }
func BenchmarkEngineFig11aSerial(b *testing.B)    { benchEngine(b, "fig11a", 1) }
func BenchmarkEngineFig11aParallel8(b *testing.B) { benchEngine(b, "fig11a", 8) }
func BenchmarkEngineFig12Serial(b *testing.B)     { benchEngine(b, "fig12", 1) }
func BenchmarkEngineFig12Parallel8(b *testing.B)  { benchEngine(b, "fig12", 8) }
