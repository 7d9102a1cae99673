package simgrid

import (
	"encoding/binary"
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

// weatherPin sets one hour of the weather to no sun, no wind and a
// demand x above what must run that hour (nuclear, geothermal, biomass
// and coal's baseload at the hour's drifted mix), so that the hour's
// residual is x: exactly so where x is 0 or nothing must run. It puts
// an hour on a path the weather never takes: a residual of exactly
// zero, a subnormal level, a level whose powers leave the normal range,
// a degenerate hour.
type weatherPin struct {
	hour int
	x    float64
}

// pinRecord is the length of a weatherPin in a fuzz case's share bytes:
// the hour as a little-endian uint16, then x's bits.
const pinRecord = 10

// pinned appends pins to a case's share bytes.
func pinned(shares []byte, pins ...weatherPin) []byte {
	out := append([]byte(nil), shares...)
	for _, p := range pins {
		out = binary.LittleEndian.AppendUint16(out, uint16(p.hour))
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(p.x))
	}
	return out
}

// pin applies p to the weather of r's dispatch at level extra.
func (w *weather) pin(r regions.Region, extra float64, p weatherPin) {
	baseMix := r.Mix
	if extra > 0 {
		baseMix = shiftToRenewables(baseMix, extra)
	}
	n := len(w.demand)
	progress := 0.0
	if n > 1 {
		progress = (float64(p.hour) - float64(n-1)/2) / float64(n-1)
	}
	mix := shiftToRenewables(baseMix, driftSpan*r.DeltaRenew*progress)
	mustRun := mix[regions.Nuclear] + mix[regions.Geothermal] + mix[regions.Biomass] + coalBaseload*mix[regions.Coal]
	w.irr[p.hour], w.wind[p.hour], w.demand[p.hour] = 0, 0, mustRun+p.x
}

// dispatchCase turns fuzz-chosen values into a region, a weather config,
// an ExtraRenewables level, a prefix to dispatch and pins on the
// weather:
//
//   - shares: byte i sets source i's weight — absent, subnormal (a
//     flexible share too small to divide by), tiny (levels whose powers
//     overflow) or ordinary — before the mix is normalised; an empty
//     mix is all nuclear; the bytes past the sources are pinRecords,
//     each hour taken modulo the weather's hours and a non-finite x
//     dropped;
//   - delta: DeltaRenew, either sign, up to Region.Validate's bound;
//   - extra: folded into [0, 1], both ends included;
//   - n: the weather's hours, up to three blocks, so the block where
//     the drift changes sign (the middle hour) moves about;
//   - cut: how many of them the prefix leaves out;
//   - seed: the weather and the region's place and demand swing.
func dispatchCase(t testing.TB, shares []byte, delta, extra float64, n, cut uint16, seed uint64) (regions.Region, Config, float64, int, []weatherPin) {
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
	var pins []weatherPin
	for b := shares[min(len(shares), regions.NumSources):]; len(b) >= pinRecord; b = b[pinRecord:] {
		x := math.Float64frombits(binary.LittleEndian.Uint64(b[2:]))
		if !math.IsNaN(x) && !math.IsInf(x, 0) {
			pins = append(pins, weatherPin{int(binary.LittleEndian.Uint16(b)) % hours, x})
		}
	}
	return r, cfg, fold(extra), hours - int(cut)%(hours+1), pins
}

// checkDispatch holds weather.dispatch to dispatchPerHour bit for bit,
// every hour of the prefix, on the weather with the pins applied.
func checkDispatch(t *testing.T, r regions.Region, cfg Config, extra float64, hours int, pins []weatherPin) {
	t.Helper()
	w := drawWeather(r, cfg)
	for _, p := range pins {
		w.pin(r, extra, p)
	}
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

// Mixes for the pinned seeds, as share bytes: every source; nothing
// that must run (no coal, biomass, geothermal or nuclear), so a pinned
// hour's residual is its x; no flexible source (no coal, gas, oil or
// hydro); and nothing that must run beside subnormal gas and oil.
var (
	everySource      = []byte{6, 7, 10, 11, 14, 15, 18, 19, 22}
	nothingRuns      = []byte{4, 6, 6, 4, 4, 6, 6, 6, 4}
	noFlexible       = []byte{4, 4, 4, 6, 6, 6, 4, 6, 6}
	subnormalPeakers = []byte{4, 1, 1, 4, 4, 6, 4, 6, 4}
)

// dispatchSeeds are cases every run covers: no fossil share, no solar or
// wind, a flexible share too small to divide by or to raise to a power,
// no flexible source at all, drifts of either sign over one to three
// blocks; and then one seed for each path flexVec leaves to the Go
// loop, pinned to one lane of the group of hours 8–11 (the kernels work
// in groups of four from each block's first hour) with the other three
// on a path it takes. A 67-hour weather leaves a tail of three. Against
// a kernel that skips its check, the full-mix, exponent, tilted-sum and
// degenerate seeds fail. A subnormal level's peaker exponents are far
// out of range, so the sum and degenerate checks stop its group too: it
// fails once all three are gone. A zero residual's curtailment changes
// no output bit, only a zero's sign on the way, so its seed cannot.
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

	// Residual exactly 0 (math.Min's rule for signed zeros).
	{pinned(everySource, weatherPin{8, 0}, weatherPin{9, .3}, weatherPin{10, .3}, weatherPin{11, .3}), 0.5, 0, 66, 0, 9},
	// Residual above 0 with no flexible share to tilt (the full-mix path).
	{pinned(noFlexible, weatherPin{9, .5}, weatherPin{8, -.3}, weatherPin{10, -.3}, weatherPin{11, -.3}), 0.5, 0, 66, 0, 10},
	// A subnormal level.
	{pinned(nothingRuns, weatherPin{10, 1e-310}, weatherPin{8, .3}, weatherPin{9, .3}, weatherPin{11, .3}), 0.5, 0, 66, 0, 11},
	// A level whose oil power's binary exponent is over 1023.
	{pinned(nothingRuns, weatherPin{11, 1e110}, weatherPin{8, .3}, weatherPin{9, .3}, weatherPin{10, .3}), 0.5, 0, 66, 0, 12},
	// A degenerate hour: total generation 0.
	{pinned(nothingRuns, weatherPin{8, -1}, weatherPin{9, .3}, weatherPin{10, .3}, weatherPin{11, .3}), 0.5, 0, 66, 0, 13},
	// A tilted split that rounds to 0: the least residual over subnormal
	// gas and oil shares, the only flexible ones; beside it, residuals
	// whose level keeps every power in range.
	{pinned(subnormalPeakers, weatherPin{9, 5e-324}, weatherPin{8, 1e-214}, weatherPin{10, 1e-214}, weatherPin{11, 1e-214}), 0.5, 0, 66, 0, 14},
}

// FuzzDispatchMatchesPerHour compares the staged dispatch with the
// per-hour reference on fuzzed mixes, drifts, levels and lengths, at
// every kernel width.
func FuzzDispatchMatchesPerHour(f *testing.F) {
	for _, c := range dispatchSeeds {
		f.Add(c.shares, c.delta, c.extra, c.n, c.cut, c.seed)
	}
	f.Fuzz(func(t *testing.T, shares []byte, delta, extra float64, n, cut uint16, seed uint64) {
		r, cfg, x, hours, pins := dispatchCase(t, shares, delta, extra, n, cut, seed)
		eachWidth(t, func(t *testing.T) { checkDispatch(t, r, cfg, x, hours, pins) })
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
	eachWidth(t, func(t *testing.T) {
		for _, c := range dispatchSeeds {
			r, cfg, x, hours, pins := dispatchCase(t, c.shares, c.delta, c.extra, c.n, c.cut, c.seed)
			checkDispatch(t, r, cfg, x, hours, pins)
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
			r, cfg, x, hours, pins := dispatchCase(t, shares, src.Uniform(0, 1), src.Uniform(-0.5, 1.5),
				uint16(src.Uint64()), cut, src.Uint64())
			checkDispatch(t, r, cfg, x, hours, pins)
		}
	})
}
