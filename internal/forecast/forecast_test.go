package forecast

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"carbonshift/internal/regions"
	"carbonshift/internal/rng"
	"carbonshift/internal/simgrid"
	"carbonshift/internal/trace"
)

func sinusoid(n int, period float64, noise float64, seed uint64) []float64 {
	src := rng.New(seed)
	out := make([]float64, n)
	for i := range out {
		out[i] = 300 + 100*math.Sin(2*math.Pi*float64(i)/period) + src.Norm(0, noise)
	}
	return out
}

func TestPersistence(t *testing.T) {
	p := Persistence{}
	got, err := p.Forecast([]float64{1, 2, 7}, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range got {
		if v != 7 {
			t.Fatalf("persistence = %v", got)
		}
	}
	if _, err := p.Forecast(nil, 1); err == nil {
		t.Fatal("empty history accepted")
	}
	if _, err := p.Forecast([]float64{1}, -1); err == nil {
		t.Fatal("negative horizon accepted")
	}
	if p.Name() == "" {
		t.Fatal("empty name")
	}
}

func TestSeasonalNaiveExactOnPeriodicSignal(t *testing.T) {
	// A noise-free periodic signal must be forecast perfectly.
	x := sinusoid(24*30, 24, 0, 1)
	f := SeasonalNaive{Period: 24, Cycles: 3}
	pred, err := f.Forecast(x[:24*20], 48)
	if err != nil {
		t.Fatal(err)
	}
	for h, v := range pred {
		want := x[24*20+h]
		if math.Abs(v-want) > 1e-6 {
			t.Fatalf("hour %d: predicted %v, want %v", h, v, want)
		}
	}
}

func TestSeasonalNaiveValidation(t *testing.T) {
	f := SeasonalNaive{Period: 24, Cycles: 2}
	if _, err := f.Forecast(make([]float64, 10), 5); err == nil {
		t.Fatal("short history accepted")
	}
	if _, err := (SeasonalNaive{Period: 0, Cycles: 1}).Forecast(make([]float64, 10), 5); err == nil {
		t.Fatal("zero period accepted")
	}
	if _, err := f.Forecast(make([]float64, 48), -1); err == nil {
		t.Fatal("negative horizon accepted")
	}
}

func TestSeasonalNaiveLongHorizon(t *testing.T) {
	// Horizons longer than the history must still produce finite,
	// in-range values (the index walk-back path).
	x := sinusoid(24*3, 24, 5, 2)
	f := SeasonalNaive{Period: 24, Cycles: 7}
	pred, err := f.Forecast(x, 24*10)
	if err != nil {
		t.Fatal(err)
	}
	for h, v := range pred {
		if math.IsNaN(v) || v < 0 || v > 1000 {
			t.Fatalf("hour %d: bad prediction %v", h, v)
		}
	}
}

func TestBlendedBeatsPersistenceOnDiurnalSignal(t *testing.T) {
	x := sinusoid(24*60, 24, 8, 3)
	warmup, horizon, step := 24*14, 24, 24
	bl, err := Backtest(Blended{}, x, warmup, horizon, step)
	if err != nil {
		t.Fatal(err)
	}
	pe, err := Backtest(Persistence{}, x, warmup, horizon, step)
	if err != nil {
		t.Fatal(err)
	}
	if bl >= pe {
		t.Fatalf("blended MAPE %.2f not better than persistence %.2f", bl, pe)
	}
}

func TestBlendedValidation(t *testing.T) {
	if _, err := (Blended{DailyWeight: 2}).Forecast(make([]float64, 200), 24); err == nil {
		t.Fatal("weight > 1 accepted")
	}
}

func TestBlendedNonNegative(t *testing.T) {
	// History near zero must not produce negative forecasts after the
	// level correction.
	x := make([]float64, 24*10)
	for i := range x {
		x[i] = 2
	}
	x[len(x)-1] = 0
	pred, err := Blended{}.Forecast(x, 24)
	if err != nil {
		t.Fatal(err)
	}
	for h, v := range pred {
		if v < 0 {
			t.Fatalf("hour %d: negative forecast %v", h, v)
		}
	}
}

func TestMAPE(t *testing.T) {
	m, err := MAPE([]float64{100, 200}, []float64{110, 180})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m-10) > 1e-9 {
		t.Fatalf("MAPE = %v, want 10", m)
	}
	if _, err := MAPE([]float64{1}, []float64{1, 2}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := MAPE(nil, nil); err == nil {
		t.Fatal("empty accepted")
	}
	if _, err := MAPE([]float64{0, 0}, []float64{1, 1}); err == nil {
		t.Fatal("all-zero actual accepted")
	}
	// Zero entries are skipped, not fatal.
	m, err = MAPE([]float64{0, 100}, []float64{50, 110})
	if err != nil || math.Abs(m-10) > 1e-9 {
		t.Fatalf("MAPE with zero = %v, %v", m, err)
	}
}

func TestBacktestValidation(t *testing.T) {
	x := sinusoid(100, 24, 1, 4)
	if _, err := Backtest(Persistence{}, x, 0, 10, 1); err == nil {
		t.Fatal("zero warmup accepted")
	}
	if _, err := Backtest(Persistence{}, x, 95, 10, 1); err == nil {
		t.Fatal("overrunning backtest accepted")
	}
}

// TestBlendedMAPEIsCarbonCastGrade checks the repository's headline
// forecasting claim: on periodic simulated regions, day-ahead blended
// forecasts land in the single-digit-to-low-teens MAPE band the paper
// cites for CarbonCast (4.8-13.9%).
func TestBlendedMAPEIsCarbonCastGrade(t *testing.T) {
	for _, code := range []string{"DE", "US-CA", "GB"} {
		tr, err := simgrid.GenerateRegionCached(regions.MustByCode(code),
			simgrid.Config{Seed: 5, Hours: 24 * 120})
		if err != nil {
			t.Fatal(err)
		}
		m, err := Backtest(Blended{}, tr.CI, 24*21, 24, 24*3)
		if err != nil {
			t.Fatal(err)
		}
		if m > 25 {
			t.Errorf("%s day-ahead MAPE = %.1f%%, want CarbonCast-comparable (< 25%%)", code, m)
		}
	}
}

func TestForecastTrace(t *testing.T) {
	start := time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)
	x := sinusoid(24*30, 24, 3, 6)
	tr := trace.New("X", start, x)
	ft, err := ForecastTrace(Blended{}, tr, 24*14, 24)
	if err != nil {
		t.Fatal(err)
	}
	if ft.Len() != tr.Len() || !ft.Start.Equal(tr.Start) || ft.Region != "X" {
		t.Fatalf("forecast trace shape wrong: %d %v %s", ft.Len(), ft.Start, ft.Region)
	}
	// Warmup region carries truth.
	for i := 0; i < 24*14; i++ {
		if ft.CI[i] != tr.CI[i] {
			t.Fatalf("warmup hour %d altered", i)
		}
	}
	// Forecast region differs from truth but stays close.
	diff := 0
	for i := 24 * 14; i < tr.Len(); i++ {
		if ft.CI[i] != tr.CI[i] {
			diff++
		}
		if math.Abs(ft.CI[i]-tr.CI[i]) > 150 {
			t.Fatalf("hour %d: forecast %v wildly off truth %v", i, ft.CI[i], tr.CI[i])
		}
	}
	if diff == 0 {
		t.Fatal("forecast region identical to truth")
	}
	if _, err := ForecastTrace(Blended{}, tr, tr.Len(), 24); err == nil {
		t.Fatal("warmup >= length accepted")
	}
	if _, err := ForecastTrace(Blended{}, tr, 0, 24); err == nil {
		t.Fatal("zero warmup accepted")
	}
}

func TestQuickSeasonalNaiveInRange(t *testing.T) {
	f := func(seed uint64, hRaw uint8) bool {
		x := sinusoid(24*10, 24, 10, seed)
		horizon := int(hRaw)%100 + 1
		pred, err := SeasonalNaive{Period: 24, Cycles: 4}.Forecast(x, horizon)
		if err != nil {
			return false
		}
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, v := range x {
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
		for _, v := range pred {
			// An average of history samples must stay within the
			// historical range.
			if v < lo-1e-9 || v > hi+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkBlendedDayAhead(b *testing.B) {
	x := sinusoid(24*365, 24, 10, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (Blended{}).Forecast(x, 24); err != nil {
			b.Fatal(err)
		}
	}
}
