package simgrid

import (
	"math"
	"testing"

	"carbonshift/internal/regions"
	"carbonshift/internal/rng"
)

// normalized scales m so its shares sum to 1.
func normalized(m regions.Mix) regions.Mix {
	total := m.Sum()
	for i := range m {
		m[i] /= total
	}
	return m
}

// dispatchPerHour is the reference for weather.dispatch: every hour on
// its own, its drifted mix built whole by shiftToRenewables and the
// flexible split made by dispatchFlexible, whose four powers come from
// tiltedShares (math.Log and math.Exp, or math.Pow off the tiltable
// range). It is how dispatch computed an hour before its hours ran in
// blocks of stages.
func (w *weather) dispatchPerHour(r regions.Region, extra float64, hours int) []float64 {
	ci := make([]float64, hours)
	baseMix := r.Mix
	if extra > 0 {
		baseMix = shiftToRenewables(baseMix, extra)
	}
	n := len(w.demand)
	half := float64(n-1) / 2
	for h := range ci {
		progress := 0.0
		if n > 1 {
			progress = (float64(h) - half) / float64(n-1)
		}
		mix := shiftToRenewables(baseMix, driftSpan*r.DeltaRenew*progress)

		solar := 0.0
		if w.irrMean > 0 {
			solar = mix[regions.Solar] * w.irr[h] / w.irrMean
		}
		wnd := 0.0
		if w.windMean > 0 {
			wnd = mix[regions.Wind] * w.wind[h] / w.windMean
		}
		coalBase := coalBaseload * mix[regions.Coal]
		baseload := mix[regions.Nuclear] + mix[regions.Geothermal] + mix[regions.Biomass] + coalBase
		residual := w.demand[h] - solar - wnd - baseload

		var hydro, coalFlex, gas, oil float64
		if residual <= 0 {
			excess := -residual
			cut := math.Min(excess, wnd)
			wnd -= cut
			excess -= cut
			cut = math.Min(excess, solar)
			solar -= cut
			excess -= cut
			cut = math.Min(excess, coalBase)
			coalBase -= cut
			baseload -= cut
		} else {
			hydro, coalFlex, gas, oil = dispatchFlexible(mix, residual)
		}
		coal := coalBase + coalFlex

		total := solar + wnd + baseload - coalBase + hydro + coal + gas + oil
		if total <= 0 {
			ci[h] = mix.NominalCI()
			continue
		}
		em := coal*regions.Coal.EmissionFactor() +
			gas*regions.Gas.EmissionFactor() +
			oil*regions.Oil.EmissionFactor() +
			solar*regions.Solar.EmissionFactor() +
			wnd*regions.Wind.EmissionFactor() +
			hydro*regions.Hydro.EmissionFactor() +
			mix[regions.Nuclear]*regions.Nuclear.EmissionFactor() +
			mix[regions.Geothermal]*regions.Geothermal.EmissionFactor() +
			mix[regions.Biomass]*regions.Biomass.EmissionFactor()
		ci[h] = em / total
	}
	return ci
}

// dispatchCase turns fuzz-chosen values into a region, a weather config,
// an ExtraRenewables level and a prefix to dispatch:
//
//   - shares: byte i sets source i's weight — absent, subnormal (a
//     flexible share too small to divide by), tiny (levels whose powers
//     overflow) or ordinary — before the mix is normalised; an empty
//     mix is all nuclear;
//   - delta: DeltaRenew, either sign, up to Region.Validate's bound;
//   - extra: folded into [0, 1], both ends included;
//   - n: the weather's hours, up to three blocks, so the block where
//     the drift changes sign (the middle hour) moves about;
//   - cut: how many of them the prefix leaves out;
//   - seed: the weather and the region's place and demand swing.
func dispatchCase(t testing.TB, shares []byte, delta, extra float64, n, cut uint16, seed uint64) (regions.Region, Config, float64, int) {
	t.Helper()
	var mix regions.Mix
	for s := range mix {
		var b byte
		if s < len(shares) {
			b = shares[s]
		}
		switch b % 8 {
		case 0, 4:
		case 1:
			mix[s] = float64(b) * 0x1p-1040
		case 5:
			mix[s] = float64(b) * 1e-300
		default:
			mix[s] = float64(b)
		}
	}
	if mix.Sum() == 0 {
		mix[regions.Nuclear] = 1
	}
	mix = normalized(mix)

	fold := func(x float64) float64 { // into [0, 1]
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return 0
		}
		x = math.Abs(math.Mod(x, 2))
		if x > 1 {
			x = 2 - x
		}
		return x
	}
	src := rng.New(seed)
	r := regions.Region{
		Code: "X-FUZZ", Name: "fuzzed", Lat: src.Uniform(-70, 70), Lon: src.Uniform(-180, 180),
		Mix:         mix,
		DeltaRenew:  (2*fold(delta) - 1) * (mix.FossilShare() + mix.RenewableShare()),
		DemandSwing: src.Uniform(0, 3),
	}
	if err := r.Validate(); err != nil {
		t.Fatalf("case generator made an invalid region: %v", err)
	}
	hours := 1 + int(n)%(3*blockHours)
	cfg := Config{Seed: seed, Hours: hours}.withDefaults()
	return r, cfg, fold(extra), hours - int(cut)%(hours+1)
}

// checkDispatch holds weather.dispatch to dispatchPerHour bit for bit,
// every hour of the prefix.
func checkDispatch(t *testing.T, r regions.Region, cfg Config, extra float64, hours int) {
	t.Helper()
	w := drawWeather(r, cfg)
	got, want := w.dispatch(r, extra, hours), w.dispatchPerHour(r, extra, hours)
	if len(got) != len(want) {
		t.Fatalf("dispatch gave %d hours, want %d", len(got), len(want))
	}
	for h := range want {
		if !sameFloat(got[h], want[h]) {
			t.Fatalf("%v, DeltaRenew %v, extra %v, %d of %d hours: hour %d is %v (%#x), per hour %v (%#x)",
				r.Mix, r.DeltaRenew, extra, hours, cfg.Hours, h,
				got[h], math.Float64bits(got[h]), want[h], math.Float64bits(want[h]))
		}
	}
}

// dispatchSeeds are cases every run covers: no fossil share, no solar or
// wind, a flexible share too small to divide by or to raise to a power,
// no flexible source at all, drifts of either sign over one to three
// blocks.
var dispatchSeeds = []struct {
	shares       []byte
	delta, extra float64
	n, cut       uint16
	seed         uint64
}{
	{[]byte{4, 4, 4, 6, 6, 6, 6, 6, 6}, 0.9, 0.3, 3*blockHours - 1, 0, 1},            // no coal, gas or oil
	{[]byte{6, 6, 6, 6, 6, 4, 6, 4, 6}, 0.2, 0.5, 2*blockHours + 7, 0, 2},            // no solar or wind
	{[]byte{6, 6, 6, 6, 6, 4, 6, 4, 6}, 0.8, 0, 2 * blockHours, 3, 3},                // ... drifting the other way
	{[]byte{1, 1, 1, 6, 6, 6, 1, 6, 6}, 0.1, 1, 3*blockHours - 1, 0, 4},              // subnormal flexible share
	{[]byte{5, 5, 5, 6, 6, 6, 5, 6, 6}, 0.6, 0.1, 2*blockHours - 1, 0, 8},            // tiny flexible share
	{[]byte{4, 4, 4, 6, 6, 6, 4, 6, 6}, 0.7, 0.2, blockHours + 1, 0, 5},              // no flexible source
	{[]byte{6, 7, 10, 11, 14, 15, 18, 19, 22}, 0.95, 0.05, 3*blockHours - 1, 100, 6}, // every source
	{[]byte{6, 7, 10, 11, 14, 15, 18, 19, 22}, 0.05, 0.95, 1, 0, 7},                  // one hour
}

// FuzzDispatchMatchesPerHour compares the staged dispatch with the
// per-hour reference on fuzzed mixes, drifts, levels and lengths, on
// both kernel paths.
func FuzzDispatchMatchesPerHour(f *testing.F) {
	for _, c := range dispatchSeeds {
		f.Add(c.shares, c.delta, c.extra, c.n, c.cut, c.seed)
	}
	f.Fuzz(func(t *testing.T, shares []byte, delta, extra float64, n, cut uint16, seed uint64) {
		r, cfg, x, hours := dispatchCase(t, shares, delta, extra, n, cut, seed)
		bothPaths(t, func(t *testing.T) { checkDispatch(t, r, cfg, x, hours) })
	})
}

// TestDispatchMatchesPerHour runs the fuzz target's seeds and a few
// hundred random cases: a third of them dispatch the whole period, so
// the middle hour, where the drift changes sign, is always among them.
func TestDispatchMatchesPerHour(t *testing.T) {
	cases := 300
	if testing.Short() {
		cases = 60
	}
	bothPaths(t, func(t *testing.T) {
		for _, c := range dispatchSeeds {
			r, cfg, x, hours := dispatchCase(t, c.shares, c.delta, c.extra, c.n, c.cut, c.seed)
			checkDispatch(t, r, cfg, x, hours)
		}
		src := rng.New(37)
		for i := range cases {
			shares := make([]byte, regions.NumSources)
			for s := range shares {
				shares[s] = byte(src.Uint64())
			}
			cut := uint16(src.Uint64())
			if i%3 == 0 {
				cut = 0
			}
			r, cfg, x, hours := dispatchCase(t, shares, src.Uniform(0, 1), src.Uniform(-0.5, 1.5),
				uint16(src.Uint64()), cut, src.Uint64())
			checkDispatch(t, r, cfg, x, hours)
		}
	})
}
