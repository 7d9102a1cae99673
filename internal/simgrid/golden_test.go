package simgrid

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"carbonshift/internal/regions"
	"carbonshift/internal/trace"
)

var update = flag.Bool("update", false, "rewrite golden files")

// traceBits hashes the IEEE-754 bits of every sample of every trace, in
// the order given: any change to any bit of any hour changes the digest.
func traceBits(traces ...*trace.Trace) string {
	h := sha256.New()
	var b [8]byte
	for _, tr := range traces {
		for _, v := range tr.CI {
			binary.BigEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestTraceBitsGolden pins the simulator's output bit for bit. The
// hashes were recorded from the one-loop simulate that preceded the
// weather/dispatch split, so they are the proof that restructuring the
// kernel (hoisted trig, integer calendar walk, skipped zero-share Pow)
// changed no sample.
func TestTraceBitsGolden(t *testing.T) {
	got := map[string]string{}
	var order []string
	record := func(name, digest string) {
		got[name] = digest
		order = append(order, name)
	}

	// (a) The full catalog at seed 1 over the default period, per
	// region so a failure names the region, and as one digest.
	set := full(t)
	var all []*trace.Trace
	for _, code := range set.Regions() {
		tr := set.MustGet(code)
		all = append(all, tr)
		record("catalog/seed1/"+code, traceBits(tr))
	}
	record("catalog/seed1", traceBits(all...))

	// (b) The greener-grid what-if at +30 %: a hydro grid, the paper's
	// example region, and a catalog region with no solar or wind (the
	// shift lands on solar alone).
	for _, code := range []string{"SE", "US-CA", "IS"} {
		tr, err := GenerateRegion(regions.MustByCode(code), Config{Seed: 1, ExtraRenewables: 0.3})
		if err != nil {
			t.Fatal(err)
		}
		record("extra0.3/seed1/"+code, traceBits(tr))
	}

	// (c) A short trace from a non-midnight start: it crosses
	// hour-of-day, day and weekday boundaries (Tue 07:00 → Sat 11:00)
	// away from the alignment every other case starts at.
	start := time.Date(2021, 6, 15, 7, 0, 0, 0, time.UTC)
	for _, code := range []string{"DE", "AU-NSW"} {
		tr, err := GenerateRegion(regions.MustByCode(code), Config{Seed: 9, Start: start, Hours: 100})
		if err != nil {
			t.Fatal(err)
		}
		record("start2021-06-15T07/100h/seed9/"+code, traceBits(tr))
	}

	path := filepath.Join("testdata", "trace_bits.golden")
	if *update {
		var sb strings.Builder
		for _, name := range order {
			fmt.Fprintf(&sb, "%s %s\n", name, got[name])
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to record)", err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != len(order) {
		t.Fatalf("golden has %d entries, test produced %d", len(lines), len(order))
	}
	for _, line := range lines {
		name, want, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("malformed golden line %q", line)
		}
		if got[name] != want {
			t.Errorf("%s: trace bits changed: got %s, golden %s", name, got[name], want)
		}
	}
}
