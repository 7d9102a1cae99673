package fft

import (
	"math"
	"math/cmplx"
	"testing"
	"testing/quick"

	"carbonshift/internal/rng"
)

// naiveDFT is the O(n²) reference implementation.
func naiveDFT(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var acc complex128
		for t := 0; t < n; t++ {
			ang := -2 * math.Pi * float64(k) * float64(t) / float64(n)
			acc += x[t] * cmplx.Exp(complex(0, ang))
		}
		out[k] = acc
	}
	return out
}

func maxErr(a, b []complex128) float64 {
	var m float64
	for i := range a {
		if d := cmplx.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

// ifft is the inverse transform through the forward one:
// IDFT(X) = conj(DFT(conj(X))) / n.
func ifft(X []complex128) []complex128 {
	c := make([]complex128, len(X))
	for i, v := range X {
		c[i] = cmplx.Conj(v)
	}
	out := FFT(c)
	for i, v := range out {
		out[i] = cmplx.Conj(v) / complex(float64(len(X)), 0)
	}
	return out
}

func randComplex(n int, seed uint64) []complex128 {
	src := rng.New(seed)
	out := make([]complex128, n)
	for i := range out {
		out[i] = complex(src.Uniform(-1, 1), src.Uniform(-1, 1))
	}
	return out
}

func TestFFTMatchesNaive(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 12, 16, 17, 31, 32, 60, 100, 128} {
		x := randComplex(n, uint64(n))
		got := FFT(x)
		want := naiveDFT(x)
		if e := maxErr(got, want); e > 1e-8 {
			t.Errorf("n=%d: max error %v", n, e)
		}
	}
}

func TestFFTEmpty(t *testing.T) {
	if got := FFT(nil); got != nil {
		t.Fatalf("FFT(nil) = %v", got)
	}
}

func TestFFTDoesNotMutateInput(t *testing.T) {
	x := randComplex(12, 3)
	orig := make([]complex128, len(x))
	copy(orig, x)
	FFT(x)
	for i := range x {
		if x[i] != orig[i] {
			t.Fatal("FFT mutated its input")
		}
	}
}

func TestRoundTrip(t *testing.T) {
	for _, n := range []int{1, 2, 5, 8, 21, 64, 100} {
		x := randComplex(n, uint64(100+n))
		back := ifft(FFT(x))
		if e := maxErr(x, back); e > 1e-9 {
			t.Errorf("n=%d: round-trip error %v", n, e)
		}
	}
}

func TestQuickRoundTrip(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw)%97 + 1
		x := randComplex(n, seed)
		return maxErr(x, ifft(FFT(x))) < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestParseval checks energy conservation: sum |x|² == (1/n) sum |X|².
func TestParseval(t *testing.T) {
	x := randComplex(50, 7)
	X := FFT(x)
	var ex, eX float64
	for i := range x {
		ex += real(x[i])*real(x[i]) + imag(x[i])*imag(x[i])
		eX += real(X[i])*real(X[i]) + imag(X[i])*imag(X[i])
	}
	if math.Abs(ex-eX/float64(len(x))) > 1e-8 {
		t.Fatalf("Parseval violated: %v vs %v", ex, eX/float64(len(x)))
	}
}

func TestDetrendRemovesLine(t *testing.T) {
	x := make([]float64, 64)
	for i := range x {
		x[i] = 3 + 0.5*float64(i)
	}
	d := Detrend(x)
	for i, v := range d {
		if math.Abs(v) > 1e-9 {
			t.Fatalf("detrended[%d] = %v, want ~0", i, v)
		}
	}
	if got := Detrend([]float64{42}); got[0] != 0 {
		t.Fatalf("single-sample detrend = %v", got)
	}
}

func TestAutocorrOfPeriodicSignal(t *testing.T) {
	// 20 exact repetitions of a 24-sample pattern.
	pattern := make([]float64, 24)
	for i := range pattern {
		pattern[i] = math.Sin(2 * math.Pi * float64(i) / 24)
	}
	x := make([]float64, 24*20)
	for i := range x {
		x[i] = 100 + 10*pattern[i%24]
	}
	acf := Autocorr(x)
	if math.Abs(acf[0]-1) > 1e-9 {
		t.Fatalf("acf[0] = %v", acf[0])
	}
	if acf[24] < 0.9 {
		t.Fatalf("acf[24] = %v, want near 1 for exact periodicity", acf[24])
	}
	if acf[12] > -0.5 {
		t.Fatalf("acf[12] = %v, want strongly negative at half period", acf[12])
	}
}

func TestAutocorrConstantSeries(t *testing.T) {
	x := make([]float64, 100)
	for i := range x {
		x[i] = 7
	}
	acf := Autocorr(x)
	for lag, v := range acf {
		if v != 0 {
			t.Fatalf("constant series acf[%d] = %v, want 0", lag, v)
		}
	}
}

func TestScoreAtPerfectPeriod(t *testing.T) {
	x := make([]float64, 24*30)
	for i := range x {
		x[i] = 200 + 50*math.Sin(2*math.Pi*float64(i)/24)
	}
	if s := ScoreAt(x, 24); s < 0.95 {
		t.Fatalf("score at true period = %v, want ~1", s)
	}
	if s := ScoreAt(x, 17); s > 0.5 {
		t.Fatalf("score at wrong period = %v, want low", s)
	}
}

func TestScoreAtFlatSeriesIsZero(t *testing.T) {
	// A high-mean series with tiny noise (a fossil-dominated grid)
	// must score 0 even if the noise is weakly correlated.
	src := rng.New(5)
	x := make([]float64, 24*30)
	for i := range x {
		x[i] = 700 + src.Norm(0, 1)
	}
	if s := ScoreAt(x, 24); s != 0 {
		t.Fatalf("flat series score = %v, want 0", s)
	}
}

func TestScoreAtBounds(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	if ScoreAt(x, 0) != 0 || ScoreAt(x, -1) != 0 || ScoreAt(x, 4) != 0 {
		t.Fatal("out-of-range lags must score 0")
	}
}

func BenchmarkFFTPow2(b *testing.B) {
	x := randComplex(8192, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FFT(x)
	}
}

func BenchmarkFFTBluestein(b *testing.B) {
	x := randComplex(8760, 1) // one year of hourly data
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FFT(x)
	}
}

// The periodicity scan's alternative to BenchmarkFFTBluestein's exact
// length: the same year zero-padded to a power of two.
func BenchmarkAblation_FFTPaddedRadix2(b *testing.B) {
	x := make([]complex128, 16384)
	copy(x, randComplex(8760, 1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FFT(x)
	}
}

func BenchmarkAutocorrYear(b *testing.B) {
	src := rng.New(1)
	x := make([]float64, 8760)
	for i := range x {
		x[i] = 300 + 50*math.Sin(2*math.Pi*float64(i)/24) + src.Norm(0, 10)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Autocorr(x)
	}
}
