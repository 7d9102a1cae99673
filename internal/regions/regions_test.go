package regions

import (
	"math"
	"testing"
)

func TestCatalogSize(t *testing.T) {
	if got := len(All()); got != 123 {
		t.Fatalf("catalog has %d regions, want 123 (the paper's dataset size)", got)
	}
}

func TestCatalogEntriesValid(t *testing.T) {
	for _, r := range All() {
		if err := r.Validate(); err != nil {
			t.Errorf("%s: %v", r.Code, err)
		}
	}
}

func TestCatalogCodesUnique(t *testing.T) {
	seen := make(map[string]bool)
	for _, r := range All() {
		if seen[r.Code] {
			t.Errorf("duplicate code %s", r.Code)
		}
		seen[r.Code] = true
	}
}

func TestAllSortedAndCopied(t *testing.T) {
	a := All()
	for i := 1; i < len(a); i++ {
		if a[i-1].Code >= a[i].Code {
			t.Fatalf("All() not sorted at %d: %s >= %s", i, a[i-1].Code, a[i].Code)
		}
	}
	a[0].Code = "MUTATED"
	if All()[0].Code == "MUTATED" {
		t.Fatal("All() exposes internal slice")
	}
}

func TestByCode(t *testing.T) {
	r, ok := ByCode("SE")
	if !ok || r.Name != "Sweden" {
		t.Fatalf("ByCode(SE) = %+v, %v", r, ok)
	}
	if _, ok := ByCode("NOPE"); ok {
		t.Fatal("ByCode accepted unknown code")
	}
}

func TestMustByCodePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustByCode did not panic on unknown code")
		}
	}()
	MustByCode("NOPE")
}

// TestGlobalMeanCalibration checks the headline dataset aggregate the
// whole analysis is normalized by: the paper reports a global average
// carbon intensity of 368.39 g·CO₂eq/kWh across the 123 regions.
func TestGlobalMeanCalibration(t *testing.T) {
	var sum float64
	for _, r := range All() {
		sum += r.Mix.NominalCI()
	}
	mean := sum / 123
	if mean < 340 || mean > 400 {
		t.Fatalf("global nominal mean CI = %.1f, want within [340, 400] (paper: 368.39)", mean)
	}
}

// TestSwedenIsMinimum checks that Sweden is the greenest region, as in
// the paper (≈16 g·CO₂eq/kWh annual average), with a usable margin to
// the runner-up so simulator noise cannot flip the ordering.
func TestSwedenIsMinimum(t *testing.T) {
	se := MustByCode("SE").Mix.NominalCI()
	if se < 8 || se > 25 {
		t.Fatalf("Sweden nominal CI = %.1f, want near 16", se)
	}
	for _, r := range All() {
		if r.Code == "SE" {
			continue
		}
		if ci := r.Mix.NominalCI(); ci < se {
			t.Errorf("%s nominal CI %.1f below Sweden's %.1f", r.Code, ci, se)
		}
	}
}

// TestHighCIFraction checks that roughly 46% of regions have
// above-400 g nominal intensity, as in the paper's Figure 3(a).
func TestHighCIFraction(t *testing.T) {
	n := 0
	for _, r := range All() {
		if r.Mix.NominalCI() > 400 {
			n++
		}
	}
	frac := float64(n) / 123
	if frac < 0.38 || frac > 0.54 {
		t.Fatalf("fraction of regions above 400 g = %.2f (%d), want ~0.46", frac, n)
	}
}

// TestSpreadIsLarge checks the max/min ratio of mean intensities is of
// the order the paper reports (≈40x).
func TestSpreadIsLarge(t *testing.T) {
	lo, hi := math.Inf(1), 0.0
	for _, r := range All() {
		ci := r.Mix.NominalCI()
		if ci < lo {
			lo = ci
		}
		if ci > hi {
			hi = ci
		}
	}
	if ratio := hi / lo; ratio < 25 || ratio > 70 {
		t.Fatalf("max/min mean CI ratio = %.1f, want within [25, 70] (paper: ~40x)", ratio)
	}
}

// TestAsiaIsHighestEuropeIsLowest checks the continental ordering the
// paper reports: Asia ≈540 g (highest), Europe ≈280 g (lowest of the
// large groupings).
func TestAsiaIsHighestEuropeIsLowest(t *testing.T) {
	means := make(map[Continent]float64)
	counts := make(map[Continent]int)
	for _, r := range All() {
		means[r.Continent] += r.Mix.NominalCI()
		counts[r.Continent]++
	}
	for c := range means {
		means[c] /= float64(counts[c])
	}
	if means[Asia] < 480 || means[Asia] > 620 {
		t.Errorf("Asia mean = %.0f, want ~540", means[Asia])
	}
	if means[Europe] < 230 || means[Europe] > 330 {
		t.Errorf("Europe mean = %.0f, want ~280", means[Europe])
	}
	if means[Asia] <= means[Europe] {
		t.Error("Asia should have higher mean CI than Europe")
	}
}

func TestHyperscaleCount(t *testing.T) {
	n := 0
	for _, r := range All() {
		if r.Providers.Hyperscale() {
			n++
		}
	}
	if n < 40 {
		t.Fatalf("only %d hyperscale regions, need >= 40 for Figure 4", n)
	}
}

func TestProviderCounts(t *testing.T) {
	check := func(p Provider, name string, lo, hi int) {
		n := 0
		for _, r := range All() {
			if r.Providers.Has(p) {
				n++
			}
		}
		if n < lo || n > hi {
			t.Errorf("%s present in %d regions, want [%d, %d]", name, n, lo, hi)
		}
	}
	check(GCP, "GCP", 30, 42)
	check(AWS, "AWS", 20, 32)
	check(Azure, "Azure", 20, 34)
	check(IBM, "IBM", 5, 10)
	check(Alibaba, "Alibaba", 8, 14)
}

// String names p's providers, joined by "+"; failure messages print a
// Region's Providers with it.
func (p Provider) String() string {
	if p == 0 {
		return "none"
	}
	var out string
	add := func(q Provider, name string) {
		if p.Has(q) {
			if out != "" {
				out += "+"
			}
			out += name
		}
	}
	add(GCP, "GCP")
	add(AWS, "AWS")
	add(Azure, "Azure")
	add(IBM, "IBM")
	add(Alibaba, "Alibaba")
	return out
}

func TestProviderString(t *testing.T) {
	if got := (GCP | AWS).String(); got != "GCP+AWS" {
		t.Errorf("String = %q", got)
	}
	if got := Provider(0).String(); got != "none" {
		t.Errorf("zero provider String = %q", got)
	}
}

func TestByContinentPartition(t *testing.T) {
	total := 0
	for _, c := range Continents() {
		for _, r := range catalog {
			if r.Continent == c {
				total++
			}
		}
	}
	if total != 123 {
		t.Fatalf("continents partition %d regions, want 123", total)
	}
}

func TestSourceProperties(t *testing.T) {
	for s := Source(0); int(s) < NumSources; s++ {
		if s.String() == "" || s.EmissionFactor() <= 0 {
			t.Errorf("source %d has bad metadata", s)
		}
	}
	if Coal.EmissionFactor() <= Gas.EmissionFactor() {
		t.Error("coal should be dirtier than gas")
	}
	if Nuclear.EmissionFactor() >= Gas.EmissionFactor() {
		t.Error("nuclear should be cleaner than gas")
	}
}

func TestMixHelpers(t *testing.T) {
	mix := m(.5, .3, 0, 0, 0, .1, 0, .1, 0)
	if got := mix.Sum(); math.Abs(got-1) > 1e-12 {
		t.Errorf("Sum = %v", got)
	}
	if got := mix.FossilShare(); math.Abs(got-0.8) > 1e-12 {
		t.Errorf("FossilShare = %v", got)
	}
	if got := mix.RenewableShare(); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("RenewableShare = %v", got)
	}
}

// TestRenewableTrendPopulation checks the Figure 3(b) calibration: in
// the paper ~23% of regions became meaningfully greener and ~20%
// meaningfully browner between 2020 and 2022, with the rest unchanged
// (within ±25 g). A DeltaRenew of magnitude >= 0.03 moves nominal CI by
// more than ~25 g for typical fossil blends.
func TestRenewableTrendPopulation(t *testing.T) {
	greener, browner := 0, 0
	for _, r := range All() {
		switch {
		case r.DeltaRenew >= 0.05:
			greener++
		case r.DeltaRenew <= -0.04:
			browner++
		}
	}
	if frac := float64(greener) / 123; frac < 0.15 || frac > 0.35 {
		t.Errorf("greener fraction = %.2f (%d), want ~0.23", frac, greener)
	}
	if frac := float64(browner) / 123; frac < 0.12 || frac > 0.30 {
		t.Errorf("browner fraction = %.2f (%d), want ~0.20", frac, browner)
	}
}

// TestLowVariabilityMajority checks that most regions have a small
// intermittent share, the precondition for the paper's ">70% of regions
// have low daily carbon-intensity variation" finding.
func TestLowVariabilityMajority(t *testing.T) {
	low := 0
	for _, r := range All() {
		if r.Mix.RenewableShare() < 0.15 {
			low++
		}
	}
	if frac := float64(low) / 123; frac < 0.60 {
		t.Fatalf("only %.2f of regions have small intermittent share, want > 0.60", frac)
	}
}
