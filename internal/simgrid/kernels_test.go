package simgrid

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"carbonshift/internal/regions"
	"carbonshift/internal/rng"
	"carbonshift/internal/trace"
)

// bothPaths runs f with the vector kernels on, where the CPU has them,
// and with them off.
func bothPaths(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	saved := vectorOn
	t.Cleanup(func() { vectorOn = saved })
	for _, on := range []bool{true, false} {
		name := "scalar"
		if on {
			name = "vector"
			if !saved {
				t.Log("no AVX2+FMA: the vector path is not available here")
				continue
			}
		}
		vectorOn = on
		t.Run(name, f)
	}
}

var batchKernels = []struct {
	name  string
	batch func([]float64)
	f     func(float64) float64
}{
	{"exp", expBatch, math.Exp},
	{"log", logBatch, math.Log},
	{"cos", cosBatch, math.Cos},
}

// checkBatch runs every kernel over xs, at every tail length from 0 to
// 7, from xs's first element and its second, on a buffer one element
// past a fresh allocation, and compares each element with the math
// function.
func checkBatch(t testing.TB, xs []float64) {
	t.Helper()
	for _, k := range batchKernels {
		for _, start := range []int{0, 1} {
			if start > len(xs) {
				continue
			}
			for tail := 0; tail <= 7; tail++ {
				in := xs[start:]
				n := max(len(in)-7, 0)/8*8 + tail
				if n > len(in) {
					continue
				}
				in = in[:n]
				got := make([]float64, n+1)[1:]
				copy(got, in)
				k.batch(got)
				for i, x := range in {
					if want := k.f(x); !sameFloat(got[i], want) {
						t.Fatalf("%s(%g = %#x) = %g (%#x), math gives %g (%#x)", k.name,
							x, math.Float64bits(x), got[i], math.Float64bits(got[i]), want, math.Float64bits(want))
					}
				}
			}
		}
	}
}

// TestBatchKernelsMatchMath holds the batch kernels to math.Exp, Log and
// Cos bit for bit, on the vector path and with it switched off.
func TestBatchKernelsMatchMath(t *testing.T) {
	bothPaths(t, func(t *testing.T) {
		src := rng.New(36)
		var xs []float64
		// Any bit pattern.
		for range 1 << 14 {
			xs = append(xs, math.Float64frombits(src.Uint64()))
		}
		checkBatch(t, xs)

		// Special values and subnormals, each among ordinary lanes.
		specials := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
			math.Float64frombits(0xfff8000000000001), math.SmallestNonzeroFloat64,
			-math.SmallestNonzeroFloat64, 0x1p-1023, 0x1p-1022, math.Nextafter(0x1p-1022, 0),
			math.MaxFloat64, -math.MaxFloat64}
		for _, s := range specials {
			checkBatch(t, []float64{0.5, 1.5, 2.5, s, 3.5, 4.5, 5.5, 6.5, s})
		}

		// exp: the edges of the safe range [-708, 709], the denormal
		// ldexp below it and the k = 1024 lanes above it, up to the
		// overflow threshold.
		var e []float64
		for _, edge := range []float64{-708, 709, -745.2, -709.5, 709.437, 709.78, 709.7827128933840} {
			x := edge
			for range 8 {
				x = math.Nextafter(x, math.Inf(-1))
			}
			for range 16 {
				e = append(e, x)
				x = math.Nextafter(x, math.Inf(1))
			}
		}
		for x := -720.0; x <= 720; x += 0.37 {
			e = append(e, x)
		}
		for range 1 << 14 {
			e = append(e, src.Uniform(-30, 30), src.Uniform(-708, 709))
		}
		checkBatch(t, e)

		// log: f1 = √2/2 exactly, and its neighbours, in every normal
		// binade, where archLog tests !(√2/2 < f1); the two branches
		// round apart there only now and then (at 2³² · √2/2, say).
		// Then ordinary arguments.
		var l []float64
		hs := math.Float64frombits(0x3fe6a09e667f3bcd)
		for exp := -1021; exp <= 1024; exp++ {
			x := math.Ldexp(hs, exp)
			l = append(l, math.Nextafter(math.Nextafter(x, 0), 0), math.Nextafter(x, 0), x,
				math.Nextafter(x, math.Inf(1)), math.Nextafter(math.Nextafter(x, math.Inf(1)), math.Inf(1)))
		}
		for range 1 << 14 {
			l = append(l, src.Float64(), 1-src.Float64(), math.Exp(src.Uniform(-700, 700)))
		}
		checkBatch(t, l)

		// cos: multiples of π/4 and their neighbours, then |x| at and
		// beyond 2²⁹, where the scalar code reduces by Payne–Hanek.
		var c []float64
		for k := -64; k <= 64; k++ {
			x := float64(k) * math.Pi / 4
			c = append(c, math.Nextafter(x, math.Inf(-1)), x, math.Nextafter(x, math.Inf(1)))
		}
		for _, x := range []float64{0x1p29, math.Nextafter(0x1p29, 0), -0x1p29, 0x1p30, 1e10, -3e15, 1e300} {
			c = append(c, x, 1, 2, 3)
		}
		for range 1 << 14 {
			c = append(c, 2*math.Pi*src.Float64(), src.Uniform(-1e6, 1e6), src.Uniform(-0x1p29, 0x1p29))
		}
		checkBatch(t, c)
	})
}

// FuzzBatchKernels lets the fuzzer pick the arguments' bits, eight bytes
// to a float64 and up to 32 of them, on both paths.
func FuzzBatchKernels(f *testing.F) {
	for _, seed := range [][]float64{
		{0.5, 1, 2, 3, 4, 5, 6},
		{-708, 709, 709.5, 710, math.Inf(-1), 0x1p-1074, 1e-310, math.NaN(), 3},
		{math.Pi / 4, 3 * math.Pi / 4, 0x1p29, -0x1p29, 1e300, math.Copysign(0, -1), 0.7071067811865476},
	} {
		b := make([]byte, 8*len(seed))
		for i, x := range seed {
			binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(x))
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		// Four blocks of 8 hold every tail and start checkBatch tries.
		xs := make([]float64, min(len(b)/8, 32))
		for i := range xs {
			xs[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
		}
		bothPaths(t, func(t *testing.T) { checkBatch(t, xs) })
	})
}

// normBatch is one stream's draws as drawWeather makes them, with the
// stream drawn alone: it sets each out[i] to the next src.Norm(mean,
// stddev). scratch must be at least as long as out.
func normBatch(src *rng.Source, mean, stddev float64, out, scratch []float64) {
	cosArgs := scratch[:len(out)]
	src.NormArgsBatch(out, cosArgs)
	normOf(mean, stddev, out, cosArgs)
}

// TestNormBatchMatchesNorm holds normBatch to rng.Norm draw for draw,
// at a million draws per path in chunks of every length, the stream
// left where Norm would leave it.
func TestNormBatchMatchesNorm(t *testing.T) {
	bothPaths(t, func(t *testing.T) {
		batch, scalar, sizes := rng.New(36), rng.New(36), rng.New(37)
		params := [][2]float64{{0, 1}, {0, demandNoise}, {10, 3}, {-2, 0.5}}
		out, scratch := make([]float64, 2*blockHours), make([]float64, 2*blockHours)
		for done, chunk := 0, 0; done < 1_000_000; chunk++ {
			n := sizes.Intn(len(out) + 1)
			p := params[chunk%len(params)]
			normBatch(batch, p[0], p[1], out[:n], scratch)
			for i, got := range out[:n] {
				if want := scalar.Norm(p[0], p[1]); !sameFloat(got, want) {
					t.Fatalf("draw %d: normBatch gives %g (%#x), Norm(%g, %g) gives %g (%#x)", done+i,
						got, math.Float64bits(got), p[0], p[1], want, math.Float64bits(want))
				}
			}
			done += n
		}
		if batch.Uint64() != scalar.Uint64() {
			t.Fatal("normBatch left its stream elsewhere than Norm does")
		}
	})
}

// FuzzDrawWeatherMatchesScalar runs the weather stage with the vector
// path on and off and requires the same bits in every series and mean:
// fuzzed coordinates and demand swings, a start any minute of 2020–2023
// (so off midnight and off the hour), and up to three blocks of hours.
// The seeds take hour counts that are neither multiples of 4 nor of
// blockHours, starts at odd hours, both hemispheres, the equator and the
// polar night.
func FuzzDrawWeatherMatchesScalar(f *testing.F) {
	for _, c := range []struct {
		seed          uint64
		lat, lon, sw  float64
		minute, hours uint32
	}{
		{1, 52.5, 13.4, 1, 0, 3*blockHours - 3},
		{2, -33.9, 151.2, 0.8, 7 * 60, blockHours + 1},
		{3, 64.1, -21.9, 2.5, 23*60 + 30, 2*blockHours + 5},
		{4, 0, -78.5, 0, 24*60*45 + 13*60 + 59, 3},
		{5, 89.9, 0, 6, 24*60*300 + 60, 97},
		{6, -89.9, 179.9, 1.3, 24*60*1000 + 5*60 + 1, 1},
	} {
		f.Add(c.seed, c.lat, c.lon, c.sw, c.minute, c.hours)
	}
	f.Fuzz(func(t *testing.T, seed uint64, lat, lon, swing float64, minute, hours uint32) {
		if !vectorOn {
			t.Skip("no AVX2+FMA: the vector path is not available here")
		}
		within := func(x, bound float64) float64 { // into [-bound, bound]
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return 0
			}
			return math.Mod(x, bound)
		}
		r := regions.Region{Code: "X-WEATHER", Lat: within(lat, 90), Lon: within(lon, 180),
			DemandSwing: math.Abs(within(swing, 6))}
		cfg := Config{Seed: seed, Start: DefaultStart.Add(time.Duration(minute%(4*366*24*60)) * time.Minute),
			Hours: 1 + int(hours%(3*blockHours))}.withDefaults()
		vec := drawWeather(r, cfg)
		vectorOn = false
		defer func() { vectorOn = true }()
		ref := drawWeather(r, cfg)
		for _, s := range []struct {
			name     string
			got, ref []float64
		}{{"irr", vec.irr, ref.irr}, {"wind", vec.wind, ref.wind}, {"demand", vec.demand, ref.demand},
			{"means", []float64{vec.irrMean, vec.windMean}, []float64{ref.irrMean, ref.windMean}}} {
			for h := range s.ref {
				if !sameFloat(s.got[h], s.ref[h]) {
					t.Fatalf("%+v from %v: %s[%d] is %v (%#x) on the vector path, %v (%#x) on the scalar", r, cfg.Start,
						s.name, h, s.got[h], math.Float64bits(s.got[h]), s.ref[h], math.Float64bits(s.ref[h]))
				}
			}
		}
	})
}

// TestStageKernelsCoverOrdinaryHours holds the stage kernels to their
// reach, which the bit tests cannot see: a kernel that stops at every
// group leaves the Go loops to produce the same bits. On a catalog
// region's first block each dispatch kernel does every hour, normVec
// and logisticVec every group of their inputs, and sunVec the whole
// rest of a day.
func TestStageKernelsCoverOrdinaryHours(t *testing.T) {
	if !vectorOn {
		t.Skip("no AVX2+FMA: the vector path is not available here")
	}
	r := regions.MustByCode("DE")
	cfg := Config{Seed: 1, Hours: blockHours}.withDefaults()
	w := drawWeather(r, cfg)
	ci := make([]float64, blockHours)
	var b dispatchBlock
	b.start(w, r, 0)
	b.load(w, ci, 0, blockHours)
	for _, k := range []struct {
		name string
		vec  func(*dispatchBlock, int) int
	}{{"driftVec", driftVec}, {"levelVec", levelVec}, {"tiltVec", tiltVec}, {"flexVec", flexVec}} {
		if got := k.vec(&b, 0); got != blockHours {
			t.Errorf("%s did %d of %s's %d hours", k.name, got, r.Code, blockHours)
		}
	}
	for h, want := range w.dispatch(r, 0, blockHours) {
		if !sameFloat(ci[h], want) {
			t.Fatalf("hour %d: the kernels one after the other give %v, dispatch %v", h, ci[h], want)
		}
	}

	const n = blockHours - 2 // a tail of two
	out, cosArgs := make([]float64, n), make([]float64, n)
	rng.New(1).NormArgsBatch(out, cosArgs)
	if got := normVec(out, cosArgs, 0, 1); got != n/4*4 {
		t.Errorf("normVec did %d of %d draws", got, n)
	}
	irr, wind := make([]float64, n), make([]float64, n)
	cloudE, windE := out, make([]float64, n)
	for i := range windE {
		windE[i] = -1.1 * cloudE[i]
	}
	if got := logisticVec(irr, wind, cloudE, windE); got != n/4*4 {
		t.Errorf("logisticVec did %d of %d hours", got, n)
	}
	var day sunDay
	for _, hod := range []int{0, 5} {
		if got, want := sunVec(irr, wind, &day, hod), (24-hod)/4*4; got != want {
			t.Errorf("sunVec from hour %d did %d hours, want %d", hod, got, want)
		}
	}
}

// TestScalarPathMatchesGolden runs the cases of TestTraceBitsGolden with
// the vector kernels off and checks each digest against the committed
// one: every region of the catalog (a handful under -short), the
// off-the-hour start, the 576-hour world and the synthetic mixes.
func TestScalarPathMatchesGolden(t *testing.T) {
	saved := vectorOn
	vectorOn = false
	defer func() { vectorOn = saved }()

	raw, err := os.ReadFile("testdata/trace_bits.golden")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for sc := bufio.NewScanner(bytes.NewReader(raw)); sc.Scan(); {
		if name, digest, ok := strings.Cut(sc.Text(), " "); ok {
			want[name] = digest
		}
	}
	check := func(name string, traces ...*trace.Trace) {
		t.Helper()
		if got := traceBits(traces...); got != want[name] {
			t.Errorf("%s: scalar path digest %s, golden %s", name, got, want[name])
		}
	}
	generate := func(r regions.Region, cfg Config) *trace.Trace {
		t.Helper()
		tr, err := generateRegion(r, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}

	catalog := regions.All()
	if testing.Short() {
		catalog = []regions.Region{regions.MustByCode("DE"), regions.MustByCode("SE"), regions.MustByCode("AU-NSW")}
	}
	for _, r := range catalog {
		check("catalog/seed1/"+r.Code, generate(r, Config{Seed: 1}))
	}
	start := time.Date(2021, 6, 15, 7, 0, 0, 0, time.UTC)
	for _, code := range []string{"DE", "AU-NSW"} {
		check("start2021-06-15T07/100h/seed9/"+code, generate(regions.MustByCode(code), Config{Seed: 9, Start: start, Hours: 100}))
	}
	short, err := Generate(regions.All(), Config{Seed: 7, Hours: 576})
	if err != nil {
		t.Fatal(err)
	}
	var all []*trace.Trace
	for _, code := range short.Regions() {
		all = append(all, short.MustGet(code))
	}
	check("catalog/576h/seed7", all...)
	for _, r := range syntheticRegions() {
		check("synthetic/8760h/seed3/"+r.Code, generate(r, Config{Seed: 3, Hours: 8760}))
	}
}

// TestSimulateAllocs pins a region's simulation at six allocations: the
// four generators, the carbon-intensity series and the trace. The
// weather and its three series come back from weatherPool, and the
// block buffers stay on the stack, which the kernels' //go:noescape
// allows. The pin may fall, never rise.
func TestSimulateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	r := regions.MustByCode("DE")
	cfg := Config{Seed: 1, Hours: 3 * blockHours / 2}.withDefaults()
	if got := testing.AllocsPerRun(20, func() { simulate(r, cfg) }); got != 6 {
		t.Errorf("simulate allocates %v times, want 6", got)
	}
}
