package core

import (
	"bytes"
	"context"
	"math"
	"testing"

	"carbonshift/internal/spatial"
	"carbonshift/internal/temporal"
	"carbonshift/internal/trace"
)

// TestCSVPipelineRoundTrip checks the full data path a downstream user
// would take: generate the dataset, export it to CSV (trace.Set's
// WriteCSV, the format ReadCSV reads), read it back, and verify that
// every sample comes back bit for bit and the analyses agree on the
// re-imported data.
func TestCSVPipelineRoundTrip(t *testing.T) {
	l := mini(t)

	var buf bytes.Buffer
	if err := l.Set.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := trace.ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Size() != l.Set.Size() || back.Len() != l.Set.Len() {
		t.Fatalf("round trip shape: %dx%d vs %dx%d",
			back.Size(), back.Len(), l.Set.Size(), l.Set.Len())
	}
	for _, code := range l.Set.Regions() {
		orig, re := l.Set.MustGet(code), back.MustGet(code)
		if !re.Start.Equal(orig.Start) {
			t.Fatalf("%s: start %v through CSV, want %v", code, re.Start, orig.Start)
		}
		for h, v := range orig.CI {
			if math.Float64bits(re.CI[h]) != math.Float64bits(v) {
				t.Fatalf("%s hour %d: %v through CSV, want %v bit for bit", code, h, re.CI[h], v)
			}
		}
	}

	// Temporal analysis agrees exactly.
	for _, code := range []string{"SE", "IN-WE"} {
		orig, err := temporal.Sweep(l.Set.MustGet(code).CI[100:], 24, 168, 1)
		if err != nil {
			t.Fatal(err)
		}
		re, err := temporal.Sweep(back.MustGet(code).CI[100:], 24, 168, 1)
		if err != nil {
			t.Fatal(err)
		}
		if orig.Interrupted[0] != re.Interrupted[0] {
			t.Fatalf("%s: interrupted cost drifted through CSV: %v vs %v",
				code, orig.Interrupted[0], re.Interrupted[0])
		}
	}

	// Spatial analysis must pick the same destination.
	origDest, _, err := spatial.LowestMeanRegion(l.Set, l.Set.Regions())
	if err != nil {
		t.Fatal(err)
	}
	reDest, _, err := spatial.LowestMeanRegion(back, back.Regions())
	if err != nil {
		t.Fatal(err)
	}
	if origDest != reDest {
		t.Fatalf("greenest region changed through CSV: %s vs %s", origDest, reDest)
	}
}

// TestSeedChangesResultsButNotShape checks that a different seed moves
// the numbers without breaking any experiment — the reproduction's
// conclusions must not hinge on one lucky draw.
func TestSeedChangesResultsButNotShape(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed lab skipped in -short mode")
	}
	other, err := NewLabCtx(context.Background(), miniOptions(43, 0))
	if err != nil {
		t.Fatal(err)
	}
	a, err := mini(t).Fig5a(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	b, err := other.Fig5a(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// A missing cell reads 0, which fails the bound below.
	av, _ := a.Value("Global", "reduction_pct")
	bv, _ := b.Value("Global", "reduction_pct")
	if av == bv {
		t.Fatal("different seeds produced identical results")
	}
	// But both seeds show near-total ideal spatial reduction.
	if av < 80 || bv < 80 {
		t.Fatalf("ideal spatial reduction unstable across seeds: %.1f vs %.1f", av, bv)
	}
}
