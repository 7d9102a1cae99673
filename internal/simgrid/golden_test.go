package simgrid

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"carbonshift/internal/golden"
	"carbonshift/internal/regions"
	"carbonshift/internal/trace"
)

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

// syntheticRegions are the off-catalog mixes of TestTraceBitsGolden (e).
func syntheticRegions() []regions.Region {
	tiny := regions.Region{Code: "X-TINYFLEX", Lat: 35, Lon: -115, DemandSwing: 1.2}
	tiny.Mix[regions.Nuclear] = 0.5
	tiny.Mix[regions.Solar] = 0.2
	tiny.Mix[regions.Wind] = 0.299999
	tiny.Mix[regions.Hydro] = 4e-7
	tiny.Mix[regions.Coal] = 5e-7 // a fifth of it flexible: the four shares sum to 10⁻⁶
	tiny.Mix[regions.Gas] = 3e-7
	tiny.Mix[regions.Oil] = 2e-7

	none := regions.Region{Code: "X-NOFLEX", Lat: 52, Lon: 10, DemandSwing: 1}
	none.Mix[regions.Nuclear] = 0.45
	none.Mix[regions.Biomass] = 0.1
	none.Mix[regions.Geothermal] = 0.05
	none.Mix[regions.Solar] = 0.2
	none.Mix[regions.Wind] = 0.2

	sunny := regions.Region{Code: "X-SOLAR", Lat: -33, Lon: 151, DemandSwing: 0.9, DeltaRenew: 0.06}
	sunny.Mix[regions.Solar] = 0.6
	sunny.Mix[regions.Wind] = 0.1
	sunny.Mix[regions.Hydro] = 0.1
	sunny.Mix[regions.Gas] = 0.1
	sunny.Mix[regions.Coal] = 0.05
	sunny.Mix[regions.Oil] = 0.05
	return []regions.Region{tiny, none, sunny}
}

// TestTraceBitsGolden pins the simulator's output bit for bit. The
// hashes of (a)–(c) were recorded from the one-loop simulate that
// preceded the weather/dispatch split, so they are the proof that
// restructuring the kernel (hoisted trig, integer calendar walk, skipped
// zero-share Pow) changed no sample; (d) and (e) were recorded on amd64
// from the two-stage kernel that still called math.Pow once per flexible
// source, ahead of the rewrite that shares one logarithm among them.
func TestTraceBitsGolden(t *testing.T) {
	var got strings.Builder
	record := func(name, digest string) { fmt.Fprintf(&got, "%s %s\n", name, digest) }

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
		tr, err := generateRegion(regions.MustByCode(code), Config{Seed: 1, ExtraRenewables: 0.3})
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
		tr, err := generateRegion(regions.MustByCode(code), Config{Seed: 9, Start: start, Hours: 100})
		if err != nil {
			t.Fatal(err)
		}
		record("start2021-06-15T07/100h/seed9/"+code, traceBits(tr))
	}

	// (d) The catalog over 576 hours, the world every online server
	// generates: the drift's progress and the irradiance and wind means
	// are taken over the short period, so no hour repeats a sample of (a).
	short, err := Generate(regions.All(), Config{Seed: 7, Hours: 576})
	if err != nil {
		t.Fatal(err)
	}
	all = all[:0]
	for _, code := range short.Regions() {
		all = append(all, short.MustGet(code))
	}
	record("catalog/576h/seed7", traceBits(all...))

	// (e) Three mixes that push the flexible-dispatch level where the
	// catalog does not: a flexible share of 10⁻⁶ (all four sources
	// present, level in the hundreds of thousands), no flexible source at
	// all, and a solar-heavy drifting grid with a twelve-hour oversupply
	// run most days (wind curtailed, then solar) and levels down to 0.005.
	for _, r := range syntheticRegions() {
		tr, err := generateRegion(r, Config{Seed: 3, Hours: 8760})
		if err != nil {
			t.Fatal(err)
		}
		record("synthetic/8760h/seed3/"+r.Code, traceBits(tr))
	}

	golden.Check(t, "trace_bits.golden", []byte(got.String()))
}
