package simgrid

import (
	"math"
	"testing"

	"carbonshift/internal/rng"
)

// sameFloat is bit equality, with every NaN equal to every other.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// checkFlexPowers holds the kernel's four powers of level — unit shares,
// so each product is the power — to math.Pow, all four together and each
// peaker alone (gas and oil share an Exp that either may be the one to
// ask for). It returns the gas and oil powers.
func checkFlexPowers(t testing.TB, level float64) (gas, oil float64) {
	t.Helper()
	hydro, coalFlex, gas, oil := tiltedShares(1, 1, 1, 1, level)
	_, _, gasAlone, _ := tiltedShares(0, 0, 1, 0, level)
	_, _, _, oilAlone := tiltedShares(0, 0, 0, 1, level)
	for _, c := range []struct {
		name string
		got  float64
		tilt float64
	}{
		{"hydro", hydro, hydroTilt},
		{"coalFlex", coalFlex, coalFlexTilt},
		{"gas", gas, gasTilt},
		{"oil", oil, oilTilt},
		{"gas alone", gasAlone, gasTilt},
		{"oil alone", oilAlone, oilTilt},
	} {
		if want := math.Pow(level, c.tilt); !sameFloat(c.got, want) {
			t.Errorf("%s: level %g (%#x) ^ %v = %g (%#x), math.Pow gives %g (%#x)", c.name,
				level, math.Float64bits(level), c.tilt, c.got, math.Float64bits(c.got), want, math.Float64bits(want))
		}
	}
	return gas, oil
}

// TestFlexPowersMatchPow is what licenses the shared-logarithm kernel on
// the running toolchain and architecture: over the whole positive range
// its powers are math.Pow's bit for bit, and outside it they are
// math.Pow's own.
func TestFlexPowersMatchPow(t *testing.T) {
	// Every power of two and both its neighbours: each binade's edges,
	// where Frexp's exponent steps, the squared mantissa renormalises
	// and — far enough out — the gas and oil powers leave the normal
	// range, so the sum of binary exponents is one only Ldexp can apply.
	var inf, zero, subnormal int
	for e := -1074; e <= 1023; e++ {
		p := math.Ldexp(1, e)
		for _, level := range []float64{math.Nextafter(p, 0), p, math.Nextafter(p, math.Inf(1))} {
			if level == 0 || math.IsInf(level, 0) {
				continue // covered below
			}
			gas, oil := checkFlexPowers(t, level)
			for _, v := range []float64{gas, oil} {
				switch {
				case math.IsInf(v, 1):
					inf++
				case v == 0:
					zero++
				case v < 0x1p-1022:
					subnormal++
				}
			}
		}
	}
	if inf == 0 || zero == 0 || subnormal == 0 {
		t.Errorf("the sweep reached %d overflowing, %d vanishing and %d subnormal powers; want some of each", inf, zero, subnormal)
	}

	src := rng.New(20)
	for i := 0; i < 200000; i++ {
		// Any positive finite bit pattern, subnormals included.
		if level := math.Float64frombits(src.Uint64() >> 1); level > 0 && level <= math.MaxFloat64 {
			checkFlexPowers(t, level)
		}
		// The levels dispatch sees: within a few e-folds of 1.
		checkFlexPowers(t, math.Exp(src.Uniform(-6, 6)))
		// A subnormal.
		checkFlexPowers(t, math.Float64frombits(src.Uint64()>>12|1))
	}
	for _, level := range []float64{1, math.MaxFloat64, math.SmallestNonzeroFloat64, 0x1p-1022,
		math.Nextafter(1, 0), math.Nextafter(1, 2), 0.5, 2, math.E, 1e-6, 634364.8001292708} {
		checkFlexPowers(t, level)
	}

	// No logarithm to share: math.Pow's special cases, as tilted always
	// gave them.
	for _, level := range []float64{0, math.Copysign(0, -1), -1, -0.5, -math.MaxFloat64,
		math.Inf(1), math.Inf(-1), math.NaN()} {
		checkFlexPowers(t, level)
	}
}

// A source the mix lacks keeps its zero share, sign and all, and takes no
// power: the product with a NaN or infinite power would not be zero.
func TestFlexPowersZeroShare(t *testing.T) {
	negZero := math.Copysign(0, -1)
	for _, level := range []float64{0.7, 1, 3e5, 0x1p-1074, math.MaxFloat64, 0, -2, math.Inf(1), math.NaN()} {
		hydro, coalFlex, gas, oil := tiltedShares(0, negZero, negZero, 0, level)
		for i, c := range []struct{ got, share float64 }{{hydro, 0}, {coalFlex, negZero}, {gas, negZero}, {oil, 0}} {
			if math.Float64bits(c.got) != math.Float64bits(c.share) {
				t.Errorf("level %g, source %d: zero share %g came back as %g", level, i, c.share, c.got)
			}
		}
	}
}

// scaleByPow2's multiplication must be Ldexp wherever it is taken —
// subnormal, vanishing and overflowing results included, which the four
// tilts never produce inside the range (their exponent sums leave it
// first) — and hand over outside it.
func TestScaleByPow2MatchesLdexp(t *testing.T) {
	src := rng.New(21)
	for i := 0; i < 500000; i++ {
		a := math.Float64frombits(src.Uint64())
		if math.IsNaN(a) || math.IsInf(a, 0) {
			continue
		}
		e := src.Intn(2300) - 1150
		if got, want := scaleByPow2(a, e), math.Ldexp(a, e); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("scaleByPow2(%g, %d) = %g (%#x), Ldexp gives %g (%#x)", a, e,
				got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	// Halfway cases at the bottom of the subnormal range, reached inside
	// the multiplied range by a small a: both round to even.
	for _, m := range []float64{1, 1.25, 1.5, math.Nextafter(1, 2), 3, 0.75} {
		a := m * 0x1p-60
		for e := -1022; e <= -1005; e++ {
			if got, want := scaleByPow2(a, e), math.Ldexp(a, e); got != want {
				t.Errorf("scaleByPow2(%g, %d) = %g, Ldexp gives %g", a, e, got, want)
			}
		}
	}
}

// FuzzFlexPowers lets the fuzzer pick the level's bits: any float64 at
// all, the ones with no logarithm included.
func FuzzFlexPowers(f *testing.F) {
	for _, level := range []float64{1, 0.37, 2.5, 634364.8, 0x1p-1074, 0x1p-640, 0x1p-400, 0x1p400, 0x1p640,
		math.MaxFloat64, 0, -1, math.Inf(1), math.NaN()} {
		f.Add(math.Float64bits(level))
	}
	f.Fuzz(func(t *testing.T, bits uint64) {
		checkFlexPowers(t, math.Float64frombits(bits))
	})
}
