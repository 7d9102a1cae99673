package simgrid

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"carbonshift/internal/regions"
	"carbonshift/internal/rng"
	"carbonshift/internal/trace"
)

// widths are the kernel paths, by subtest name: the eight-lane kernels
// first (with the four-lane ones and Go after them), the four-lane ones
// first, and Go alone.
var widths = []struct {
	name  string
	lanes int
}{{"vector", 8}, {"vector4", 4}, {"scalar", 0}}

// hostLanes is the width the probe chose, which the tests lower.
var hostLanes = lanes

// needLanes skips t unless the host runs n-lane kernels, naming what it
// lacks.
func needLanes(t testing.TB, n int) {
	t.Helper()
	switch {
	case n > hostLanes && n == 8:
		t.Skip("no AVX-512 F, DQ and VL with the opmask and ZMM state saved: the 8-lane path is not available here")
	case n > hostLanes:
		t.Skip("no AVX2+FMA: the vector path is not available here")
	}
}

// atLanes runs the kernels at n lanes until t ends.
func atLanes(t testing.TB, n int) {
	t.Helper()
	needLanes(t, n)
	saved := lanes
	t.Cleanup(func() { lanes = saved })
	lanes = n
}

// eachWidth runs f as a subtest on every width, skipped where the host
// lacks it.
func eachWidth(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	for _, w := range widths {
		t.Run(w.name, func(t *testing.T) {
			atLanes(t, w.lanes)
			f(t)
		})
	}
}

// kernel is a batch kernel and the math function it must equal.
type kernel struct {
	name  string
	batch func([]float64)
	f     func(float64) float64
}

var batchKernels = []kernel{
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
// Cos bit for bit, at every width.
func TestBatchKernelsMatchMath(t *testing.T) {
	eachWidth(t, func(t *testing.T) {
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
// to a float64 and up to 32 of them, at every width.
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
		eachWidth(t, func(t *testing.T) { checkBatch(t, xs) })
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
// at a million draws per width in chunks of every length, the stream
// left where Norm would leave it.
func TestNormBatchMatchesNorm(t *testing.T) {
	eachWidth(t, func(t *testing.T) {
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

// FuzzDrawWeatherMatchesScalar runs the weather stage at each vector
// width and with the vector path off and requires the same bits in
// every series and mean: fuzzed coordinates and demand swings, a start
// any minute of 2020–2023 (so off midnight and off the hour), and up to
// three blocks of hours. The seeds take hour counts that are neither
// multiples of 4 nor of blockHours, starts at odd hours, both
// hemispheres, the equator and the polar night.
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
		atLanes(t, 0)
		ref := drawWeather(r, cfg)
		for _, w := range widths[:2] {
			t.Run(w.name, func(t *testing.T) {
				atLanes(t, w.lanes)
				vec := drawWeather(r, cfg)
				for _, s := range []struct {
					name     string
					got, ref []float64
				}{{"irr", vec.irr, ref.irr}, {"wind", vec.wind, ref.wind}, {"demand", vec.demand, ref.demand},
					{"means", []float64{vec.irrMean, vec.windMean}, []float64{ref.irrMean, ref.windMean}}} {
					for h := range s.ref {
						if !sameFloat(s.got[h], s.ref[h]) {
							t.Fatalf("%+v from %v: %s[%d] is %v (%#x) at %d lanes, %v (%#x) on the scalar path", r, cfg.Start,
								s.name, h, s.got[h], math.Float64bits(s.got[h]), w.lanes, s.ref[h], math.Float64bits(s.ref[h]))
						}
					}
				}
			})
		}
	})
}

// TestStageKernelsCoverOrdinaryHours holds the stage kernels to their
// reach, which the bit tests cannot see: a kernel that stops at every
// group leaves the Go loops to produce the same bits. On a catalog
// region's first block each dispatch kernel does every hour, normVec
// and logisticVec every group of their inputs, and sunVec the whole
// rest of a day; so do the eight-lane forms of tiltVec, flexVec, normVec
// and logisticVec at their width.
func TestStageKernelsCoverOrdinaryHours(t *testing.T) {
	r := regions.MustByCode("DE")
	cfg := Config{Seed: 1, Hours: blockHours}.withDefaults()
	w := drawWeather(r, cfg)
	const n = blockHours - 2 // a tail of two
	type stage struct {
		name string
		vec  func(*dispatchBlock, int) int
	}
	for _, c := range []struct {
		name     string
		lanes    int
		stages   []stage
		norm     func(out, cosArgs []float64, mean, stddev float64) int
		logistic func(irr, wind, cloudE, windE []float64) int
	}{
		{"vector", 8, []stage{{"driftVec", driftVec}, {"levelVec", levelVec}, {"tiltVec8", tiltVec8}, {"flexVec8", flexVec8}},
			normVec8, logisticVec8},
		{"vector4", 4, []stage{{"driftVec", driftVec}, {"levelVec", levelVec}, {"tiltVec", tiltVec}, {"flexVec", flexVec}},
			normVec, logisticVec},
	} {
		t.Run(c.name, func(t *testing.T) {
			needLanes(t, c.lanes)
			ci := make([]float64, blockHours)
			var b dispatchBlock
			b.start(w, r, 0)
			b.load(w, ci, 0, blockHours)
			for _, k := range c.stages {
				if got := k.vec(&b, 0); got != blockHours {
					t.Errorf("%s did %d of %s's %d hours", k.name, got, r.Code, blockHours)
				}
			}
			for h, want := range w.dispatch(r, 0, blockHours) {
				if !sameFloat(ci[h], want) {
					t.Fatalf("hour %d: the kernels one after the other give %v, dispatch %v", h, ci[h], want)
				}
			}

			out, cosArgs := make([]float64, n), make([]float64, n)
			rng.New(1).NormArgsBatch(out, cosArgs)
			if got := c.norm(out, cosArgs, 0, 1); got != n/c.lanes*c.lanes {
				t.Errorf("normVec did %d of %d draws at %d lanes", got, n, c.lanes)
			}
			irr, wind := make([]float64, n), make([]float64, n)
			cloudE, windE := out, make([]float64, n)
			for i := range windE {
				windE[i] = -1.1 * cloudE[i]
			}
			if got := c.logistic(irr, wind, cloudE, windE); got != n/c.lanes*c.lanes {
				t.Errorf("logisticVec did %d of %d hours at %d lanes", got, n, c.lanes)
			}
			var day sunDay
			for _, hod := range []int{0, 5} {
				if got, want := sunVec(irr, wind, &day, hod), (24-hod)/4*4; got != want {
					t.Errorf("sunVec from hour %d did %d hours, want %d", hod, got, want)
				}
			}
		})
	}
}

// TestScalarPathMatchesGolden runs the cases of TestTraceBitsGolden with
// the vector kernels off and checks each digest against the committed
// one: every region of the catalog (a handful under -short), the
// off-the-hour start, the 576-hour world and the synthetic mixes.
func TestScalarPathMatchesGolden(t *testing.T) {
	atLanes(t, 0)
	catalog := regions.All()
	if testing.Short() {
		catalog = goldenSample()
	}
	checkGolden(t, catalog)
}

// TestVectorWidths runs a sample of TestTraceBitsGolden's cases at each
// kernel width — eight lanes, four, and Go alone — and logs which widths
// this host has: a subtest the host cannot run is skipped, naming the
// feature it lacks.
func TestVectorWidths(t *testing.T) {
	t.Logf("the CPU probe chose %d lanes", hostLanes)
	for _, w := range widths {
		t.Run(w.name, func(t *testing.T) {
			atLanes(t, w.lanes)
			checkGolden(t, goldenSample())
			t.Logf("%d lanes: every digest matches", w.lanes)
		})
	}
}

// goldenSample is the handful of catalog regions the short golden runs
// take: a wind and coal grid, a hydro one, a solar one in the south.
func goldenSample() []regions.Region {
	return []regions.Region{regions.MustByCode("DE"), regions.MustByCode("SE"), regions.MustByCode("AU-NSW")}
}

// checkGolden generates, at the current width, catalog's traces at seed
// 1 and TestTraceBitsGolden's cases (c)–(e), and checks each digest
// against trace_bits.golden.
func checkGolden(t *testing.T, catalog []regions.Region) {
	t.Helper()
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
			t.Errorf("%s: digest %s at %d lanes, golden %s", name, got, lanes, want[name])
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

// TestEightLaneKernelsStopBeforeUnsafeLane puts one lane outside a
// body's safe range — a NaN, an Exp overflow or denormal result, a
// Payne–Hanek cosine argument, a non-normal Log argument, an hour off
// flexVec's paths — at each of the eight positions of a kernel's second
// group. The eight-lane kernel must do the first group and store
// nothing of the second, and the batch or stage, which hands that group
// to the four-lane kernel and Go, must still give math's or the Go
// loop's bits.
func TestEightLaneKernelsStopBeforeUnsafeLane(t *testing.T) {
	atLanes(t, 8)
	const n = 16
	ordinary := func(i int) float64 { return 0.05 + float64(i)/17 } // in every body's range
	stored := func(name string, p int, got, want []float64) {
		t.Helper()
		for i := 8; i < n; i++ {
			if !sameFloat(got[i], want[i]) {
				t.Fatalf("%s, unsafe lane %d: element %d of the stopped group was stored (%v, was %v)", name, p, i, got[i], want[i])
			}
		}
	}
	for _, k := range []struct {
		kernel
		vec8   func([]float64) int
		unsafe []float64
	}{
		{batchKernels[0], expVec8, []float64{math.NaN(), math.Inf(1), math.Inf(-1), 709.5, 710, 800, -708.5, -745.2}},
		{batchKernels[1], logVec8, []float64{math.NaN(), math.Inf(1), 0, math.Copysign(0, -1), -1, 1e-310, 0x1p-1074}},
		{batchKernels[2], cosVec8, []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0x1p29, -0x1p29, 1e10, 1e300}},
	} {
		for _, bad := range k.unsafe {
			for p := range 8 {
				xs := make([]float64, n)
				for i := range xs {
					xs[i] = ordinary(i)
				}
				xs[8+p] = bad
				got := slices.Clone(xs)
				if done := k.vec8(got); done != 8 {
					t.Fatalf("%s(%v) in lane %d: the 8-lane kernel did %d elements, want 8", k.name, bad, p, done)
				}
				stored(k.name, p, got, xs)
				got = slices.Clone(xs)
				k.batch(got)
				for i, x := range xs {
					if want := k.f(x); !sameFloat(got[i], want) {
						t.Fatalf("%s(%v) in lane %d: element %d is %v, math gives %v", k.name, bad, p, i, got[i], want)
					}
				}
			}
		}
	}

	// normVec8: a bad Log argument in out, or a bad cosine argument.
	for _, bad := range []struct {
		log, cos float64
	}{{math.NaN(), 1}, {0, 1}, {-1, 1}, {1e-310, 1}, {0.5, math.NaN()}, {0.5, 1e10}, {0.5, math.Inf(-1)}} {
		for p := range 8 {
			out, cosArgs := make([]float64, n), make([]float64, n)
			for i := range out {
				out[i], cosArgs[i] = ordinary(i), 2*math.Pi*ordinary(n-1-i)
			}
			out[8+p], cosArgs[8+p] = bad.log, bad.cos
			in, cosIn := slices.Clone(out), slices.Clone(cosArgs)
			if done := normVec8(out, cosArgs, 1, 2); done != 8 {
				t.Fatalf("normVec8 with %+v in lane %d did %d draws, want 8", bad, p, done)
			}
			stored("normVec8", p, out, in)
			copy(out, in)
			normOf(1, 2, out, cosArgs)
			for i := range in {
				if want := rng.NormOf(1, 2, math.Log(in[i]), math.Cos(cosIn[i])); !sameFloat(out[i], want) {
					t.Fatalf("normOf with %+v in lane %d: draw %d is %v, want %v", bad, p, i, out[i], want)
				}
			}
		}
	}

	// logisticVec8: a bad Exp argument in cloudE or in windE.
	for _, bad := range []float64{math.NaN(), 710, -746} {
		for _, inWind := range []bool{false, true} {
			for p := range 8 {
				irr, wind, cloudE, windE := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
				for i := range irr {
					irr[i], wind[i], cloudE[i], windE[i] = ordinary(i), -1, ordinary(i)-0.5, 0.5-ordinary(i)
				}
				if inWind {
					windE[8+p] = bad
				} else {
					cloudE[8+p] = bad
				}
				irrIn, windIn := slices.Clone(irr), slices.Clone(wind)
				if done := logisticVec8(irr, wind, cloudE, windE); done != 8 {
					t.Fatalf("logisticVec8 with %v in lane %d did %d hours, want 8", bad, p, done)
				}
				stored("logisticVec8 irr", p, irr, irrIn)
				stored("logisticVec8 wind", p, wind, windIn)
				for i := range 8 {
					wantIrr, wantWind := irrIn[i]*(0.25+0.75/(1+math.Exp(cloudE[i]))), 1/(1+math.Exp(windE[i]))
					if !sameFloat(irr[i], wantIrr) || !sameFloat(wind[i], wantWind) {
						t.Fatalf("logisticVec8 with %v in lane %d: hour %d is %v, %v, want %v, %v", bad, p, i, irr[i], wind[i], wantIrr, wantWind)
					}
				}
			}
		}
	}

	// flexVec8: an hour on a path it does not take — a residual of ±0
	// or NaN, a residual at level 0 (the full mix), a subnormal level.
	r := regions.MustByCode("DE")
	w := drawWeather(r, Config{Seed: 1, Hours: n}.withDefaults())
	for _, bad := range []struct{ res, level float64 }{
		{0, 0}, {math.Copysign(0, -1), 0}, {math.NaN(), 0}, {0.3, 0}, {0.3, 1e-310},
	} {
		for p := range 8 {
			var b dispatchBlock
			b.start(w, r, 0)
			b.load(w, slices.Repeat([]float64{-1}, n), 0, n)
			for _, vec := range []func(*dispatchBlock, int) int{driftVec, levelVec, tiltVec} {
				vec(&b, 0)
			}
			b.residual[8+p], b.level[8+p] = bad.res, bad.level
			if done := flexVec8(&b, 0); done != 8 {
				t.Fatalf("flexVec8 with %+v in lane %d did %d hours, want 8", bad, p, done)
			}
			stored("flexVec8", p, b.ci, slices.Repeat([]float64{-1}, n))
			ref := b
			ref.ci = make([]float64, n)
			ref.flexStage(0, n)
			runStage(&b, flexVecs, (*dispatchBlock).flexStage)
			for i := range n {
				if !sameFloat(b.ci[i], ref.ci[i]) {
					t.Fatalf("flex stage with %+v in lane %d: hour %d gives %v, the Go loop %v", bad, p, i, b.ci[i], ref.ci[i])
				}
			}
		}
	}

	// tiltVec8: a level whose Log is off the safe range.
	for _, bad := range []float64{math.NaN(), 0, 1e-310, math.Inf(1)} {
		for p := range 8 {
			var b dispatchBlock
			b.m = n
			for i := range n {
				b.logs[i] = 1 + 1000*ordinary(i)
				b.hydroExp[i], b.coalFlexExp[i], b.peakerExp[i] = -1, -1, -1
			}
			b.logs[8+p] = bad
			logs := b.logs
			if done := tiltVec8(&b, 0); done != 8 {
				t.Fatalf("tiltVec8 with %v in lane %d did %d hours, want 8", bad, p, done)
			}
			untouched := slices.Repeat([]float64{-1}, n)
			stored("tiltVec8 hydroExp", p, b.hydroExp[:n], untouched)
			stored("tiltVec8 coalFlexExp", p, b.coalFlexExp[:n], untouched)
			stored("tiltVec8 peakerExp", p, b.peakerExp[:n], untouched)
			runStage(&b, tiltVecs, (*dispatchBlock).tiltStage)
			for i := range n {
				lg := math.Log(logs[i])
				for _, c := range []struct {
					got, frac float64
				}{{b.hydroExp[i], hydroFrac}, {b.coalFlexExp[i], coalFlexFrac}, {b.peakerExp[i], peakerFrac}} {
					if want := math.Exp(c.frac * lg); !sameFloat(c.got, want) {
						t.Fatalf("tilt stage with %v in lane %d: hour %d gives %v, want %v", bad, p, i, c.got, want)
					}
				}
			}
		}
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

// BenchmarkStageKernels times each stage kernel alone over a catalog
// region's first block at every width it has, so a kernel's two widths
// can be held against each other: one op is one pass over blockHours
// hours (normVec and logisticVec, which work in place, over a fresh copy
// of their inputs each time).
func BenchmarkStageKernels(b *testing.B) {
	if hostLanes < 4 {
		b.Skip("no AVX2+FMA: the vector path is not available here")
	}
	r := regions.MustByCode("DE")
	cfg := Config{Seed: 1, Hours: blockHours}.withDefaults()
	w := drawWeather(r, cfg)
	var blk dispatchBlock
	blk.start(w, r, 0)
	blk.load(w, make([]float64, blockHours), 0, blockHours)
	for _, vec := range []func(*dispatchBlock, int) int{driftVec, levelVec, tiltVec, flexVec} {
		vec(&blk, 0)
	}
	logArgs, cosArgs := make([]float64, blockHours), make([]float64, blockHours)
	rng.New(1).NormArgsBatch(logArgs, cosArgs)
	windE := make([]float64, blockHours)
	for i := range windE {
		windE[i] = -1.1 * logArgs[i]
	}
	out, irr, wind := make([]float64, blockHours), make([]float64, blockHours), make([]float64, blockHours)
	for _, k := range []struct {
		name  string
		lanes int
		run   func() int
	}{
		{"driftVec", 4, func() int { return driftVec(&blk, 0) }},
		{"levelVec", 4, func() int { return levelVec(&blk, 0) }},
		{"tiltVec", 4, func() int { return tiltVec(&blk, 0) }},
		{"tiltVec8", 8, func() int { return tiltVec8(&blk, 0) }},
		{"flexVec", 4, func() int { return flexVec(&blk, 0) }},
		{"flexVec8", 8, func() int { return flexVec8(&blk, 0) }},
		{"normVec", 4, func() int { copy(out, logArgs); return normVec(out, cosArgs, 0, 1) }},
		{"normVec8", 8, func() int { copy(out, logArgs); return normVec8(out, cosArgs, 0, 1) }},
		{"logisticVec", 4, func() int { copy(irr, logArgs); return logisticVec(irr, wind, logArgs, windE) }},
		{"logisticVec8", 8, func() int { copy(irr, logArgs); return logisticVec8(irr, wind, logArgs, windE) }},
	} {
		b.Run(k.name, func(b *testing.B) {
			needLanes(b, k.lanes)
			for b.Loop() {
				if k.run() != blockHours {
					b.Fatalf("%s stopped short of the block", k.name)
				}
			}
		})
	}
}
