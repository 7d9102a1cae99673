package simgrid

import (
	"math"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"carbonshift/internal/regions"
	"carbonshift/internal/trace"
)

// fullSet lazily generates the complete 123-region, 3-year trace set
// once and shares it across the calibration tests.
var (
	fullOnce sync.Once
	fullSet  *trace.Set
)

func full(t *testing.T) *trace.Set {
	t.Helper()
	fullOnce.Do(func() {
		var err error
		fullSet, err = GenerateAll(Config{Seed: 1})
		if err != nil {
			panic(err)
		}
	})
	return fullSet
}

func dailyCV(ci []float64) float64 {
	nd := len(ci) / 24
	var acc float64
	for d := 0; d < nd; d++ {
		day := ci[d*24 : (d+1)*24]
		var m, s float64
		for _, v := range day {
			m += v
		}
		m /= 24
		for _, v := range day {
			s += (v - m) * (v - m)
		}
		if m > 0 {
			acc += math.Sqrt(s/24) / m
		}
	}
	return acc / float64(nd)
}

func TestConfigValidate(t *testing.T) {
	if err := (Config{}).Validate(); err != nil {
		t.Errorf("zero config rejected: %v", err)
	}
	if err := (Config{Hours: -1}).Validate(); err == nil {
		t.Error("negative hours accepted")
	}
	if err := (Config{ExtraRenewables: -0.1}).Validate(); err == nil {
		t.Error("negative ExtraRenewables accepted")
	}
	if err := (Config{ExtraRenewables: 1.5}).Validate(); err == nil {
		t.Error("ExtraRenewables > 1 accepted")
	}
}

func TestDeterminism(t *testing.T) {
	r := regions.MustByCode("DE")
	cfg := Config{Seed: 7, Hours: 24 * 30}
	a, err := GenerateRegion(r, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateRegion(r, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.CI {
		if a.CI[i] != b.CI[i] {
			t.Fatalf("traces diverge at hour %d: %v != %v", i, a.CI[i], b.CI[i])
		}
	}
}

func TestSeedChangesTrace(t *testing.T) {
	r := regions.MustByCode("DE")
	a, _ := GenerateRegion(r, Config{Seed: 1, Hours: 24 * 30})
	b, _ := GenerateRegion(r, Config{Seed: 2, Hours: 24 * 30})
	same := 0
	for i := range a.CI {
		if a.CI[i] == b.CI[i] {
			same++
		}
	}
	if same == len(a.CI) {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestGenerateMatchesGenerateRegion(t *testing.T) {
	regs := []regions.Region{regions.MustByCode("FR"), regions.MustByCode("PL")}
	cfg := Config{Seed: 5, Hours: 24 * 10}
	set, err := Generate(regs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	solo, err := GenerateRegion(regs[1], cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := set.MustGet("PL")
	for i := range solo.CI {
		if got.CI[i] != solo.CI[i] {
			t.Fatalf("set and solo traces diverge at %d (region streams must not depend on batch composition)", i)
		}
	}
}

func TestGenerateRejectsEmpty(t *testing.T) {
	if _, err := Generate(nil, Config{Seed: 1, Hours: 24}); err == nil {
		t.Fatal("empty region list accepted")
	}
}

func TestTraceShape(t *testing.T) {
	r := regions.MustByCode("SE")
	tr, err := GenerateRegion(r, Config{Seed: 1, Hours: 48})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 48 {
		t.Fatalf("length = %d", tr.Len())
	}
	if !tr.Start.Equal(DefaultStart) {
		t.Fatalf("start = %v", tr.Start)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCustomStart(t *testing.T) {
	start := time.Date(2021, 6, 1, 0, 0, 0, 0, time.UTC)
	tr, err := GenerateRegion(regions.MustByCode("SE"), Config{Seed: 1, Start: start, Hours: 24})
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Start.Equal(start) {
		t.Fatalf("start = %v, want %v", tr.Start, start)
	}
}

func TestAllSamplesFiniteAndPositive(t *testing.T) {
	set := full(t)
	for _, code := range set.Regions() {
		tr := set.MustGet(code)
		for i, v := range tr.CI {
			if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
				t.Fatalf("%s hour %d: bad CI %v", code, i, v)
			}
			if v > 1200 {
				t.Fatalf("%s hour %d: implausible CI %v", code, i, v)
			}
		}
	}
}

// --- Calibration against the paper's dataset-level statistics ---

func TestGlobalMeanNear368(t *testing.T) {
	gm := full(t).GlobalMean()
	if gm < 340 || gm > 410 {
		t.Fatalf("global mean CI = %.1f, want near the paper's 368.39", gm)
	}
}

func TestSwedenIsGreenestRegion(t *testing.T) {
	set := full(t)
	se := set.MustGet("SE").Mean()
	if se < 8 || se > 25 {
		t.Fatalf("Sweden mean = %.1f, want near 16", se)
	}
	for _, code := range set.Regions() {
		if code == "SE" {
			continue
		}
		if m := set.MustGet(code).Mean(); m <= se {
			t.Errorf("%s mean %.1f at or below Sweden's %.1f", code, m, se)
		}
	}
}

func TestMajorityLowDailyVariability(t *testing.T) {
	set := full(t)
	low := 0
	for _, code := range set.Regions() {
		if dailyCV(set.MustGet(code).CI) < 0.1 {
			low++
		}
	}
	frac := float64(low) / float64(set.Size())
	if frac < 0.62 || frac > 0.85 {
		t.Fatalf("low-daily-CV fraction = %.2f (%d regions), paper reports >70%%", frac, low)
	}
}

func TestHighIntensityFraction(t *testing.T) {
	set := full(t)
	n := 0
	for _, code := range set.Regions() {
		if set.MustGet(code).Mean() > 400 {
			n++
		}
	}
	if frac := float64(n) / float64(set.Size()); frac < 0.38 || frac > 0.54 {
		t.Fatalf("above-400 fraction = %.2f, paper reports ~46%%", frac)
	}
}

func TestDriftPopulations(t *testing.T) {
	set := full(t)
	y20, err := set.Year(2020)
	if err != nil {
		t.Fatal(err)
	}
	y22, err := set.Year(2022)
	if err != nil {
		t.Fatal(err)
	}
	greener, browner := 0, 0
	for _, code := range set.Regions() {
		d := y22.MustGet(code).Mean() - y20.MustGet(code).Mean()
		switch {
		case d < -25:
			greener++
		case d > 25:
			browner++
		}
	}
	n := float64(set.Size())
	if frac := float64(greener) / n; frac < 0.14 || frac > 0.33 {
		t.Errorf("greener fraction = %.2f (%d), paper reports ~23%%", frac, greener)
	}
	if frac := float64(browner) / n; frac < 0.11 || frac > 0.30 {
		t.Errorf("browner fraction = %.2f (%d), paper reports ~20%%", frac, browner)
	}
	flat := n - float64(greener) - float64(browner)
	if frac := flat / n; frac < 0.45 || frac > 0.72 {
		t.Errorf("flat fraction = %.2f, paper reports ~57%%", frac)
	}
}

func TestRealizedMeansTrackNominal(t *testing.T) {
	set := full(t)
	for _, r := range regions.All() {
		got := set.MustGet(r.Code).Mean()
		want := r.Mix.NominalCI()
		// Wind-heavy grids run above nominal: oversupply hours curtail
		// wind while shortfall hours backfill with fossil (the model
		// has no interconnector imports), so the tolerance widens with
		// the intermittent share.
		tol := want*(0.12+0.45*r.Mix.RenewableShare()) + 6
		if math.Abs(got-want) > tol {
			t.Errorf("%s realized mean %.1f vs nominal %.1f (tol %.1f)", r.Code, got, want, tol)
		}
	}
}

// TestSolarRegionsDipAtMidday checks the qualitative solar signature:
// in California the average midday intensity must be well below the
// average evening intensity.
func TestSolarRegionsDipAtMidday(t *testing.T) {
	set := full(t)
	tr := set.MustGet("US-CA")
	// Local noon in California is ~20:00 UTC; local 20:00 is ~04:00 UTC.
	var noon, evening float64
	n := 0
	for h := 0; h+24 <= tr.Len(); h += 24 {
		noon += tr.CI[h+20]
		evening += tr.CI[h+4]
		n++
	}
	noon /= float64(n)
	evening /= float64(n)
	if noon >= evening {
		t.Fatalf("California midday CI %.1f not below evening CI %.1f", noon, evening)
	}
}

// TestAperiodicFossilGrids checks Hong Kong and Indonesia stay nearly
// flat, the precondition for their zero periodicity score in Figure 4.
func TestAperiodicFossilGrids(t *testing.T) {
	set := full(t)
	for _, code := range []string{"HK", "ID"} {
		if cv := dailyCV(set.MustGet(code).CI); cv > 0.03 {
			t.Errorf("%s daily CV = %.3f, want nearly flat (< 0.03)", code, cv)
		}
	}
}

// --- Greener-grid what-if ---

func TestExtraRenewablesLowersMean(t *testing.T) {
	r := regions.MustByCode("US-CA")
	base, _ := GenerateRegion(r, Config{Seed: 3, Hours: 24 * 60})
	green, _ := GenerateRegion(r, Config{Seed: 3, Hours: 24 * 60, ExtraRenewables: 0.25})
	if green.Mean() >= base.Mean() {
		t.Fatalf("extra renewables did not lower mean: %.1f -> %.1f", base.Mean(), green.Mean())
	}
}

// TestGreenerHelper: the §6.3 mix transformation, 20 points from
// fossil to renewables, keeps the mix whole and makes it cleaner.
func TestGreenerHelper(t *testing.T) {
	r := regions.MustByCode("PL")
	g := r
	g.Mix = shiftToRenewables(r.Mix, 0.2)
	if got := g.Mix.Sum(); math.Abs(got-r.Mix.Sum()) > 1e-9 {
		t.Fatalf("Greener changed mix sum: %v", got)
	}
	if g.Mix.RenewableShare() <= r.Mix.RenewableShare() {
		t.Fatal("Greener did not raise renewable share")
	}
	if g.Mix.NominalCI() >= r.Mix.NominalCI() {
		t.Fatal("Greener did not lower nominal CI")
	}
}

func TestShiftToRenewablesClamps(t *testing.T) {
	mix := regions.Mix{regions.Gas: 0.3, regions.Hydro: 0.6, regions.Solar: 0.1}
	// Requesting more than the fossil share shifts only what exists.
	out := shiftToRenewables(mix, 0.9)
	if out[regions.Gas] < -1e-12 {
		t.Fatalf("gas went negative: %v", out[regions.Gas])
	}
	if math.Abs(out.Sum()-1) > 1e-9 {
		t.Fatalf("sum changed: %v", out.Sum())
	}
	// Negative shift larger than the renewable share clamps too.
	out = shiftToRenewables(mix, -0.9)
	if out[regions.Solar] < -1e-12 {
		t.Fatalf("solar went negative: %v", out[regions.Solar])
	}
}

func TestShiftToRenewablesNoRenewablesTarget(t *testing.T) {
	mix := regions.Mix{regions.Coal: 0.7, regions.Gas: 0.3}
	out := shiftToRenewables(mix, 0.2)
	if math.Abs(out[regions.Solar]-0.2) > 1e-9 {
		t.Fatalf("shift into renew-free mix should land on solar, got %+v", out)
	}
}

func TestQuickShiftPreservesMassAndBounds(t *testing.T) {
	f := func(coal, gas, hyd, sol, wnd uint8, rawShift int8) bool {
		mix := regions.Mix{
			regions.Coal:  float64(coal%100) + 1,
			regions.Gas:   float64(gas % 100),
			regions.Hydro: float64(hyd % 100),
			regions.Solar: float64(sol % 100),
			regions.Wind:  float64(wnd % 100),
		}.Normalize()
		shift := float64(rawShift) / 128 // in (-1, 1)
		out := shiftToRenewables(mix, shift)
		if math.Abs(out.Sum()-1) > 1e-9 {
			return false
		}
		for _, v := range out {
			if v < -1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDispatchFlexibleBalances(t *testing.T) {
	mix := regions.MustByCode("DE").Mix
	for _, residual := range []float64{0.01, 0.2, 0.5, 0.8, 1.2} {
		h, c, g, o := dispatchFlexible(mix, residual)
		if got := h + c + g + o; math.Abs(got-residual) > 1e-9 {
			t.Errorf("residual %.2f: dispatch sums to %v", residual, got)
		}
		for _, v := range []float64{h, c, g, o} {
			if v < 0 {
				t.Errorf("residual %.2f: negative dispatch %v", residual, v)
			}
		}
	}
}

func TestDispatchFlexibleNoFlexCapacity(t *testing.T) {
	mix := regions.Mix{regions.Nuclear: 0.5, regions.Solar: 0.5}
	h, c, g, o := dispatchFlexible(mix, 0.3)
	if h != 0 || c != 0 || o != 0 || math.Abs(g-0.3) > 1e-12 {
		t.Fatalf("fallback dispatch = %v %v %v %v", h, c, g, o)
	}
}

// TestPeakerTilt checks that gas's share of fossil generation grows
// with residual demand, the mechanism behind diurnal CI cycles.
func TestPeakerTilt(t *testing.T) {
	mix := regions.MustByCode("US-WA").Mix
	_, cLo, gLo, _ := dispatchFlexible(mix, 0.4)
	_, cHi, gHi, _ := dispatchFlexible(mix, 1.0)
	ratioLo := gLo / (gLo + cLo + 1e-12)
	ratioHi := gHi / (gHi + cHi + 1e-12)
	if ratioHi <= ratioLo {
		t.Fatalf("gas share did not grow with residual: %.3f -> %.3f", ratioLo, ratioHi)
	}
}

func BenchmarkGenerateRegionYear(b *testing.B) {
	r := regions.MustByCode("DE")
	cfg := Config{Seed: 1, Hours: 8760}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := GenerateRegion(r, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- The what-if entry point ---

// greenerLevels are the ExtraRenewables levels core's Figure 11(c–d)
// sweep asks WhatIf for (core.greenerSteps).
var greenerLevels = []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5}

// WhatIf shares one weather draw between its levels and dispatches only
// a prefix; each series must still be, bit for bit, the head of the
// trace GenerateRegion simulates for that level alone.
func TestWhatIfMatchesGenerateRegion(t *testing.T) {
	noFlex := regions.Region{Code: "X-NOFLEX", Lat: 48, Lon: 2, DemandSwing: 1,
		Mix: regions.Mix{regions.Nuclear: .55, regions.Solar: .2, regions.Wind: .2, regions.Biomass: .05}}
	drifting := regions.MustByCode("DE")
	drifting.DeltaRenew = -.15
	cases := []regions.Region{
		regions.MustByCode("SE"),
		// No solar or wind: the shift lands on solar alone, and a
		// negative drift (ID) has nothing to take back.
		regions.MustByCode("IS"), regions.MustByCode("PY"), regions.MustByCode("ID"),
		// No hydro, coal, gas or oil: every short hour takes the
		// flex <= 0 import branch, which no catalog region reaches.
		noFlex,
		drifting,
	}
	cfg := Config{Seed: 21, Hours: 24 * 45}
	const hours = 24*20 + 7
	for _, r := range cases {
		got, err := WhatIf(r, cfg, greenerLevels, hours)
		if err != nil {
			t.Fatalf("%s: %v", r.Code, err)
		}
		if len(got) != len(greenerLevels) {
			t.Fatalf("%s: %d series for %d levels", r.Code, len(got), len(greenerLevels))
		}
		for i, level := range greenerLevels {
			one := cfg
			one.ExtraRenewables = level
			want, err := GenerateRegion(r, one)
			if err != nil {
				t.Fatal(err)
			}
			if len(got[i]) != hours {
				t.Fatalf("%s +%v: %d hours, want %d", r.Code, level, len(got[i]), hours)
			}
			for h, v := range got[i] {
				if math.Float64bits(v) != math.Float64bits(want.CI[h]) {
					t.Fatalf("%s +%v hour %d: %v, GenerateRegion has %v", r.Code, level, h, v, want.CI[h])
				}
			}
		}
	}
}

func TestWhatIfValidates(t *testing.T) {
	r := regions.MustByCode("SE")
	cfg := Config{Seed: 1, Hours: 48}
	if _, err := WhatIf(r, cfg, greenerLevels, 49); err == nil {
		t.Error("prefix longer than the simulated period accepted")
	}
	if _, err := WhatIf(r, cfg, greenerLevels, -1); err == nil {
		t.Error("negative prefix accepted")
	}
	for _, level := range []float64{-0.1, 1.5} {
		if _, err := WhatIf(r, cfg, []float64{0, level}, 24); err == nil {
			t.Errorf("level %v accepted", level)
		}
	}
	if _, err := WhatIf(r, Config{Hours: -1}, greenerLevels, 0); err == nil {
		t.Error("negative Hours accepted")
	}
	// The whole period is a valid prefix.
	if got, err := WhatIf(r, cfg, []float64{0.2}, 48); err != nil || len(got[0]) != 48 {
		t.Errorf("full-period prefix: %v", err)
	}
}

// The Figure 11(d) kernel — the hourly minimum across regions at each
// renewable level, over the hours a default-span run reads — two ways:
// one weather draw per region re-dispatched per level and folded into
// the envelope as produced, vs a whole trace set materialised per level
// (assembled here from the public Generate; no production path keeps it).
const whatIfHours = 8760 + 24

func BenchmarkAblation_WhatIfStreamed(b *testing.B) {
	regs := regions.All()[:16]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		envelope := make([][]float64, len(greenerLevels))
		for _, r := range regs {
			series, err := WhatIf(r, Config{Seed: 1}, greenerLevels, whatIfHours)
			if err != nil {
				b.Fatal(err)
			}
			for s, ci := range series {
				if envelope[s] == nil {
					envelope[s] = ci
					continue
				}
				for h, v := range ci {
					if v < envelope[s][h] {
						envelope[s][h] = v
					}
				}
			}
		}
	}
}

func BenchmarkAblation_WhatIfMaterialised(b *testing.B) {
	regs := regions.All()[:16]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, level := range greenerLevels {
			set, err := Generate(regs, Config{Seed: 1, ExtraRenewables: level})
			if err != nil {
				b.Fatal(err)
			}
			_ = set.MinSeries()[:whatIfHours]
		}
	}
}
