// Package simgrid synthesizes hourly grid carbon-intensity traces for
// the catalog regions, standing in for the Electricity Maps dataset the
// paper collected (123 regions, 2020–2022, hourly).
//
// The simulator is a compact physical model of each regional grid:
//
//   - Demand follows diurnal, weekly, and seasonal cycles whose
//     amplitudes scale with the region's DemandSwing and latitude, plus
//     small Gaussian noise.
//   - Nuclear, geothermal, and biomass run as constant baseload.
//   - Hydro partially load-follows (dispatchable reservoir behaviour).
//   - Solar output follows a solar-elevation model driven by latitude,
//     day of year, and local hour, modulated by an autocorrelated cloud
//     process; the capacity is scaled so the annual energy share matches
//     the catalog mix.
//   - Wind is an autocorrelated stochastic process, likewise scaled to
//     its annual share.
//   - Fossil generation fills the residual demand. The split between
//     coal, gas, and oil tilts with the residual level: coal behaves as
//     baseload while gas and oil act as peakers, so the marginal fuel —
//     and hence carbon intensity — varies over the day.
//   - The mix itself drifts linearly over the simulated period by the
//     region's DeltaRenew, producing the 2020→2022 trends of Figure 3(b).
//
// Carbon intensity is the generation-weighted average emission factor,
// exactly as carbon information services compute it. The model
// reproduces the dataset-level statistics the paper's analysis rests on
// (see DESIGN.md) while remaining fully deterministic under a seed.
//
// The simulation runs in two stages. The weather stage (drawWeather)
// reads the region's code, coordinates and DemandSwing and the config's
// Seed, Start and Hours, and draws everything the mix cannot influence:
// the cloud, wind and demand-noise processes, solar irradiance, demand.
// The dispatch stage (weather.dispatch) additionally reads the region's
// Mix and DeltaRenew and the config's ExtraRenewables, and turns any
// prefix of the weather into carbon intensity, hour by independent
// hour; an hour's cost is its transcendentals, so the four
// flexible-source powers are formed from one logarithm (tiltedShares),
// and both stages walk their hours in blocks of stage loops that run
// in vector kernels on amd64 (kernels_amd64.s) — eight hours at a time
// with AVX-512, four with AVX2, as the CPU probe finds — with the Go
// loops as their fallback. Generate and the
// cached entry points (cache.go) run one after the other for a whole
// base trace; WhatIf draws the weather once and
// dispatches it at several ExtraRenewables levels over the hours its
// caller reads, handing the series back uncached.
package simgrid

import (
	"fmt"
	"math"
	"sync"
	"time"
	"weak"

	"carbonshift/internal/engine"
	"carbonshift/internal/regions"
	"carbonshift/internal/rng"
	"carbonshift/internal/trace"
)

// DefaultStart is the first simulated hour, matching the paper's study
// period.
var DefaultStart = time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)

// DefaultHours covers 2020 (leap), 2021, and 2022.
const DefaultHours = 8784 + 8760 + 8760

// Config parameterizes a simulation run.
type Config struct {
	// Seed drives all stochastic components. The same seed always
	// produces the same traces.
	Seed uint64
	// Start is the first simulated hour: an instant, read on the UTC
	// calendar whatever its Location. Zero means DefaultStart.
	Start time.Time
	// Hours is the number of hourly samples. Zero means DefaultHours.
	Hours int
	// ExtraRenewables shifts this fraction of every region's fossil
	// share into solar and wind before simulating, implementing the
	// "what if the grid gets greener" scenario of §6.3. It may be 0.
	ExtraRenewables float64
}

// withDefaults fills the zero values and normalises Start to UTC: the
// calendar the model reads (hour of day, day of year, weekday) is
// Start's own, and the cache keys on the instant, so two spellings of
// one instant must simulate — not just key — alike.
func (c Config) withDefaults() Config {
	if c.Start.IsZero() {
		c.Start = DefaultStart
	}
	c.Start = c.Start.UTC()
	if c.Hours == 0 {
		c.Hours = DefaultHours
	}
	return c
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	c = c.withDefaults()
	if c.Hours < 0 {
		return fmt.Errorf("simgrid: negative hours %d", c.Hours)
	}
	// Written so that a NaN fails too.
	if !(c.ExtraRenewables >= 0 && c.ExtraRenewables <= 1) {
		return fmt.Errorf("simgrid: ExtraRenewables %v outside [0, 1]", c.ExtraRenewables)
	}
	return nil
}

// checkRegion refuses a region whose model inputs are not all finite.
// Beyond poisoning every sample, a NaN never equals itself, so the
// trace cache, which keys on these values, could never find the entry
// it made for one.
func checkRegion(r regions.Region) error {
	bad := func(field string, v float64) error {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("simgrid: region %q: %s is %v, not finite", r.Code, field, v)
		}
		return nil
	}
	if err := bad("Lat", r.Lat); err != nil {
		return err
	}
	if err := bad("Lon", r.Lon); err != nil {
		return err
	}
	for src, share := range r.Mix {
		if err := bad("Mix["+regions.Source(src).String()+"]", share); err != nil {
			return err
		}
	}
	if err := bad("DeltaRenew", r.DeltaRenew); err != nil {
		return err
	}
	return bad("DemandSwing", r.DemandSwing)
}

// Demand-model amplitudes, as fractions of mean demand.
const (
	diurnalAmp  = 0.13
	weeklyAmp   = 0.04
	seasonalAmp = 0.06
	demandNoise = 0.012
	demandFloor = 0.40
)

// coalBaseload is the fraction of coal capacity that runs as must-run
// baseload; the rest load-follows alongside hydro, gas, and oil.
const coalBaseload = 0.8

// Flexible-dispatch tilt exponents: each flexible source's output
// responds to the residual-demand level with its own elasticity.
// Reservoir hydro flattens excursions (sub-linear), coal's flexible
// tranche is nearly proportional, and gas and oil are peakers whose
// share of generation grows super-linearly with demand — making gas/oil
// the marginal fuel and giving carbon intensity its diurnal shape.
const (
	hydroTilt    = 0.55
	coalFlexTilt = 0.9
	gasTilt      = 1.6
	oilTilt      = 2.6
)

// driftSpan converts DeltaRenew (defined as the change in year-mean
// renewable share from 2020 to 2022) into the total mix excursion over
// the simulated period: year means sit at ±1/3 of the span, so the span
// must be 1.5x the year-mean delta.
const driftSpan = 1.5

// Generate simulates all the given regions and returns the aligned
// trace set.
func Generate(regs []regions.Region, cfg Config) (*trace.Set, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	for _, r := range regs {
		if err := checkRegion(r); err != nil {
			return nil, err
		}
	}
	traces := make([]*trace.Trace, 0, len(regs))
	for _, r := range regs {
		traces = append(traces, simulate(r, cfg))
	}
	if len(traces) == 0 {
		return nil, fmt.Errorf("simgrid: no regions given")
	}
	return trace.NewSet(traces)
}

// WhatIf simulates one region at several ExtraRenewables levels — the
// §6.3 "what if the grid gets greener" sweep — and returns, per level,
// the carbon intensity of the first `hours` hours: out[i] is, bit for
// bit, the head of the trace Generate simulates for r under cfg with
// ExtraRenewables: levels[i]. cfg.ExtraRenewables itself is not read.
// The weather is drawn once for all levels and only the hours asked for
// are dispatched, so a sweep that reads the head of each trace pays for
// one simulation plus the head, not one simulation per level. Nothing
// enters the trace cache: the series are the caller's to fold and drop.
func WhatIf(r regions.Region, cfg Config, levels []float64, hours int) ([][]float64, error) {
	if err := checkRegion(r); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	if hours < 0 || hours > cfg.Hours {
		return nil, fmt.Errorf("simgrid: what-if prefix of %d hours outside the %d simulated", hours, cfg.Hours)
	}
	for _, level := range levels {
		cfg.ExtraRenewables = level
		if err := cfg.Validate(); err != nil {
			return nil, err
		}
	}
	w := drawWeather(r, cfg)
	out := make([][]float64, len(levels))
	for i, level := range levels {
		out[i] = w.dispatch(r, level, hours)
	}
	w.release()
	return out, nil
}

// rngFor derives a region's generator from its code and the seed alone,
// so the per-region stream is independent of catalog order and of which
// worker goroutine simulates the region.
func rngFor(code string, cfg Config) *rng.Source {
	return rng.New(cfg.Seed ^ hashCode(code))
}

func hashCode(s string) uint64 {
	// FNV-1a, inlined to keep the package dependency-free.
	var h uint64 = 14695981039346656037
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// shiftToRenewables moves `shift` fraction points from fossil to
// solar+wind (negative shift moves the other way). The result is
// clamped so no share goes negative.
func shiftToRenewables(mix regions.Mix, shift float64) regions.Mix {
	d := newDrift(mix)
	out := mix
	out[regions.Coal], out[regions.Gas], out[regions.Oil], out[regions.Solar], out[regions.Wind] = d.shares(shift)
	return out
}

// drift is a mix about to be shifted between its fossil and intermittent
// parts: the mix with its FossilShare and RenewableShare, computed once
// for every shift asked of it.
type drift struct {
	mix           regions.Mix
	fossil, renew float64
}

func newDrift(mix regions.Mix) drift {
	return drift{mix: mix, fossil: mix.FossilShare(), renew: mix.RenewableShare()}
}

// shares are the five shares a shift moves — coal, gas, oil, solar and
// wind — after moving shift fraction points as shiftToRenewables
// describes. The other four sources never drift.
func (d *drift) shares(shift float64) (coal, gas, oil, solar, wind float64) {
	mix, f, rshare := &d.mix, d.fossil, d.renew
	coal, gas, oil = mix[regions.Coal], mix[regions.Gas], mix[regions.Oil]
	solar, wind = mix[regions.Solar], mix[regions.Wind]
	if shift > 0 {
		if shift > f {
			shift = f
		}
	} else if -shift > rshare {
		shift = -rshare
	}
	if shift == 0 {
		return coal, gas, oil, solar, wind
	}
	// Each side gives and takes in proportion to its sources' shares; a
	// receiving side with no share of its own takes it all on solar (or,
	// moving the other way, on gas).
	if shift > 0 {
		coal -= shift * mix[regions.Coal] / f
		gas -= shift * mix[regions.Gas] / f
		oil -= shift * mix[regions.Oil] / f
		if rshare == 0 {
			solar += shift
		} else {
			solar += shift * mix[regions.Solar] / rshare
			wind += shift * mix[regions.Wind] / rshare
		}
	} else {
		solar += shift * mix[regions.Solar] / rshare // shift < 0: reduces
		wind += shift * mix[regions.Wind] / rshare
		if f == 0 {
			gas -= shift
		} else {
			coal -= shift * mix[regions.Coal] / f
			gas -= shift * mix[regions.Gas] / f
			oil -= shift * mix[regions.Oil] / f
		}
	}
	return coal, gas, oil, solar, wind
}

// simulate produces one region's hourly trace: the weather stage, then
// the dispatch stage over every hour.
func simulate(r regions.Region, cfg Config) *trace.Trace {
	w := drawWeather(r, cfg)
	ci := w.dispatch(r, cfg.ExtraRenewables, cfg.Hours)
	w.release()
	return trace.New(r.Code, cfg.Start, ci)
}

// weather is stage one of the simulation: everything about a region's
// period that does not depend on its generation mix. It reads only the
// region's code (through the seed), coordinates and DemandSwing, and the
// config's Seed, Start and Hours — so one draw serves every mix the
// dispatch stage is asked about.
type weather struct {
	// irr and wind are the solar and wind capacity-factor shapes; the
	// dispatch stage divides them by their means over the whole period
	// so annual energy shares stay on the catalog mix.
	irr, wind         []float64
	irrMean, windMean float64
	// demand is the load (mean 1), noise included.
	demand []float64
	// slab holds the three series back to back. A weather goes back to
	// weatherPool once dispatched, so the slab serves region after
	// region and no n-hour series but the intensity is allocated, or
	// zeroed, per region.
	slab []float64
}

// weatherPool holds the released weathers. Any goroutine takes back
// any of them (a sync.Pool hides the weather in each P's private slot
// from goroutines on the other Ps, so two workers could miss one), and
// it holds them weakly, so the collector still reclaims idle ones.
var weatherPool struct {
	mu   sync.Mutex
	free []weak.Pointer[weather]
}

// takeWeather takes a released weather from weatherPool, or a new one,
// with room for n hours.
func takeWeather(n int) *weather {
	var w *weather
	weatherPool.mu.Lock()
	for len(weatherPool.free) > 0 && w == nil {
		last := len(weatherPool.free) - 1
		w = weatherPool.free[last].Value()
		weatherPool.free = weatherPool.free[:last]
	}
	weatherPool.mu.Unlock()
	if w == nil {
		w = new(weather)
	}
	if cap(w.slab) < 3*n {
		w.slab = make([]float64, 3*n)
	}
	return w
}

// reserveWeathers leaves weatherPool a weather of n hours for each of
// the at most `workers` goroutines (0 means one per CPU) that may draw
// one at once over cells regions. Once a call has reserved them, a
// later call of the same size allocates no weather, however its
// workers happen to overlap, unless the collector took them between.
func reserveWeathers(workers, cells, n int) {
	if workers <= 0 {
		workers = engine.DefaultWorkers()
	}
	ws := make([]*weather, min(workers, cells))
	for i := range ws {
		ws[i] = takeWeather(n)
	}
	for _, w := range ws {
		w.release()
	}
}

// release hands w back to weatherPool. Nothing may read w afterwards;
// dispatch's output does not alias it.
func (w *weather) release() {
	weatherPool.mu.Lock()
	weatherPool.free = append(weatherPool.free, weak.Make(w))
	weatherPool.mu.Unlock()
}

// blockHours is the length of the blocks drawWeather and dispatch walk
// their hours in. Each stage of a block runs over all of its hours
// before the next starts, on buffers on the caller's stack, so its
// hours are independent and a vector kernel can take them four at a
// time.
const blockHours = 512

// drawWeather runs the weather stage for cfg.Hours hours from cfg.Start
// (UTC; see withDefaults). The calendar is walked by integer steps —
// hour of day, day of year, weekday — and everything that is constant
// over a day (declination, season, weekend) or a function of the hour
// of day alone (hour angle, diurnal demand shape) is computed once, not
// once per hour. The grouping of each hoisted term is load-bearing:
// TestTraceBitsGolden pins every sample's bits, and regrouping a sum or
// product (say, adding the weekly and seasonal terms ahead of the hour
// loop) rounds differently.
//
// Each block of hours takes four stages: the calendar terms (sunVec);
// the block's Gaussian draws of the cloud, wind and demand-noise
// streams, all three in one pass (rng.NormArgs3), then each stream's
// Box–Muller step (normOf); the AR(1) chains of cloud and wind and the
// demand sum, hour after hour; and the two logistic maps (logisticVec).
// The three generators are independent, so each stream's values are
// those of a loop of its own whatever the staging. The weather comes
// from weatherPool, its series overwritten hour by hour, and the terms
// of a day of the year from yearDays.
func drawWeather(r regions.Region, cfg Config) *weather {
	n := cfg.Hours
	src := rngFor(r.Code, cfg)
	// The three streams are split in this order whatever is drawn from
	// them afterwards: cloud, wind, demand noise.
	cloudSrc, windSrc, demandSrc := src.Split(), src.Split(), src.Split()
	w := takeWeather(n)
	w.irr, w.wind, w.demand = w.slab[:n:n], w.slab[n:2*n:2*n], w.slab[2*n:3*n:3*n]
	// Cloud cover and wind are unit-variance AR(1) processes, the cloud
	// the slower of the two.
	const cloudPhi, windPhi = 0.995, 0.985
	cloudSigma, windSigma := math.Sqrt(1-cloudPhi*cloudPhi), math.Sqrt(1-windPhi*windPhi)
	cloud, gust := cloudSrc.Norm(0, 1), windSrc.Norm(0, 1)

	// By hour of day: the sun's hour angle and the two-harmonic diurnal
	// demand shape, peaking in the early evening with a secondary
	// morning shoulder. A Start off the hour keeps its minutes all
	// period long; the demand model reads them, the solar model does
	// not.
	var day sunDay
	minutes := float64(cfg.Start.Minute()) / 60
	for hod := range day.cosHourAngle {
		localHour := float64(hod) + r.Lon/15
		hourAngle := (localHour - 12) * 15 * math.Pi / 180
		day.cosHourAngle[hod] = math.Cos(hourAngle)

		localHour = float64(hod) + minutes + r.Lon/15
		shape := 0.8*math.Cos(2*math.Pi*(localHour-17)/24) +
			0.2*math.Cos(4*math.Pi*(localHour-9)/24)
		day.diurnal[hod] = diurnalAmp * r.DemandSwing * shape
	}

	latRad := r.Lat * math.Pi / 180
	sinLat, cosLat := math.Sin(latRad), math.Cos(latRad)
	// Seasonal demand peaks in local winter, scaled by latitude
	// (tropical grids have flat seasons).
	south := 0
	if r.Lat < 0 {
		south = 1
	}
	latScale := math.Min(1, math.Abs(r.Lat)/50)

	hod := cfg.Start.Hour()
	year, yday := cfg.Start.Year(), cfg.Start.YearDay()
	weekday := cfg.Start.Weekday()
	// By day: solar declination, the seasonal and weekly demand terms.
	days := yearDays()
	startDay := func() {
		d := &days[yday]
		day.sinSin, day.cosCos = sinLat*d.sinDecl, cosLat*d.cosDecl
		day.seasonal = seasonalAmp * latScale * d.season[south]
		day.weekly = weeklyAmp * r.DemandSwing * 0.3
		if weekday == time.Saturday || weekday == time.Sunday {
			day.weekly = weeklyAmp * r.DemandSwing * -0.75
		}
	}
	startDay()

	// The block's cloud and wind draws, then their logistic arguments;
	// the demand noise; the three streams' cosine arguments.
	var buf [6 * blockHours]float64
	var irrSum, windSum float64
	for h0 := 0; h0 < n; h0 += blockHours {
		m := min(blockHours, n-h0)
		irr, wind, demand := w.irr[h0:h0+m], w.wind[h0:h0+m], w.demand[h0:h0+m]
		cloudE, windE, noise := buf[:m], buf[blockHours:][:m], buf[2*blockHours:][:m]
		cosArgs := [3][]float64{buf[3*blockHours:][:m], buf[4*blockHours:][:m], buf[5*blockHours:][:m]}

		// Solar elevation (latitude, declination, local hour) — the
		// cloud attenuation multiplies it below — and demand before its
		// noise: sunVec's runs of four hours within a day, and the Go
		// loop's hour where none is left.
		for i := 0; i < m; {
			if hod == 24 {
				hod = 0
				weekday = (weekday + 1) % 7
				if yday++; yday > daysIn(year) {
					year, yday = year+1, 1
				}
				startDay()
			}
			k := 0
			if lanes >= 4 {
				k = sunVec(irr[i:], demand[i:], &day, hod)
			}
			if k == 0 {
				sinElev := day.sinSin + day.cosCos*day.cosHourAngle[hod]
				if sinElev < 0 {
					sinElev = 0
				}
				irr[i] = sinElev
				demand[i] = 1 + day.diurnal[hod] + day.weekly + day.seasonal
				k = 1
			}
			i, hod = i+k, hod+k
		}

		rng.NormArgs3([3]*rng.Source{cloudSrc, windSrc, demandSrc}, [3][]float64{cloudE, windE, noise}, cosArgs)
		normOf(0, cloudSigma, cloudE, cosArgs[0])
		normOf(0, windSigma, windE, cosArgs[1])
		normOf(0, demandNoise, noise, cosArgs[2])

		for i := range demand {
			cloud = cloudPhi*cloud + cloudE[i]
			cloudE[i] = -1.2 * cloud
			gust = windPhi*gust + windE[i]
			windE[i] = -1.1 * gust
			d := demand[i] + noise[i]
			if d < demandFloor {
				d = demandFloor
			}
			demand[i] = d
		}

		// The cloud process, mapped through a logistic into an
		// attenuation factor in [0.25, 1]; wind, a capacity factor in
		// (0, 1): logisticVec8 and logisticVec eight and four hours at a
		// time, the Go loop over the group where both stop.
		for i := 0; i < m; {
			j := m
			if lanes >= 8 {
				i += logisticVec8(irr[i:], wind[i:], cloudE[i:], windE[i:])
			}
			if lanes >= 4 {
				i += logisticVec(irr[i:], wind[i:], cloudE[i:], windE[i:])
				j = min(i+4, m)
			}
			expBatch(cloudE[i:j])
			expBatch(windE[i:j])
			for ; i < j; i++ {
				irr[i] *= 0.25 + 0.75/(1+cloudE[i])
				wind[i] = 1 / (1 + windE[i])
			}
		}
		// The two means' sums, hour after hour as one loop over each
		// series would add them, side by side.
		for i := range irr {
			irrSum += irr[i]
			windSum += wind[i]
		}
	}
	w.irrMean, w.windMean = irrSum/float64(n), windSum/float64(n)
	return w
}

// yearDay is what drawWeather reads of a day of the year, the same for
// every region: the sine and cosine of the solar declination, and the
// cosine of the seasonal demand phase for a northern peak (day 15) and
// a southern one (day 196).
type yearDay struct {
	sinDecl, cosDecl float64
	season           [2]float64
}

// yearDays is yearDay for days 1 to 366, computed once per process, not
// once per day of every region.
var yearDays = sync.OnceValue(func() *[367]yearDay {
	var t [367]yearDay
	for yday := 1; yday < len(t); yday++ {
		doy := float64(yday)
		decl := 23.45 * math.Pi / 180 * math.Sin(2*math.Pi*(284+doy)/365.25)
		t[yday].sinDecl, t[yday].cosDecl = math.Sin(decl), math.Cos(decl)
		for i, peakDoy := range [2]float64{15, 196} {
			t[yday].season[i] = math.Cos(2 * math.Pi * (doy - peakDoy) / 365.25)
		}
	}
	return &t
})

// sunDay is what drawWeather's solar and demand loop reads of a day:
// the terms constant over it and those by hour of day. sunVec reads it
// by go_asm.h's field offsets.
type sunDay struct {
	sinSin, cosCos, seasonal, weekly float64
	cosHourAngle, diurnal            [24]float64
}

// normOf finishes a stream's draws: it sets each out[i] to
// rng.NormOf(mean, stddev, Log(out[i]), Cos(cosArgs[i])), so that out
// and cosArgs, a run of rng.NormArgs, become that run of Norm(mean,
// stddev) bit for bit. normVec8 and normVec take eight and four draws
// at a time, each draw's logarithm, cosine and Box–Muller step in one
// pass, and the Go loop — batch calls for the logarithms and cosines,
// then rng.NormOf — the group where both stop. cosArgs must be at least
// as long as out.
func normOf(mean, stddev float64, out, cosArgs []float64) {
	cosArgs = cosArgs[:len(out)]
	for i := 0; i < len(out); {
		j := len(out)
		if lanes >= 8 {
			i += normVec8(out[i:], cosArgs[i:], mean, stddev)
		}
		if lanes >= 4 {
			i += normVec(out[i:], cosArgs[i:], mean, stddev)
			j = min(i+4, len(out))
		}
		logBatch(out[i:j])
		cosBatch(cosArgs[i:j])
		for ; i < j; i++ {
			out[i] = rng.NormOf(mean, stddev, out[i], cosArgs[i])
		}
	}
}

// daysIn is the length of a Gregorian calendar year.
func daysIn(year int) int {
	if year%4 == 0 && (year%100 != 0 || year%400 == 0) {
		return 366
	}
	return 365
}

// dispatch is stage two: it meets the weather's demand from the region's
// mix — shifted by extra (Config.ExtraRenewables) and drifting by the
// region's DeltaRenew — and returns the carbon intensity of the first
// `hours` hours. Each hour is computed from that hour's weather alone,
// so a prefix is exactly the head of the full trace.
//
// A block of hours is a struct of arrays (dispatchBlock) walked by four
// stage loops whose hours are independent of each other, so their
// divisions overlap instead of queueing behind one another: each hour's
// drift and the five shares it moves (drift.shares; nuclear,
// geothermal, biomass and hydro never drift and are read from the base
// mix); the solar and wind output, the residual demand left to the
// flexible sources and its level (residual over flexible share); the
// Exp of each fractional tilt times the level's Log; and the flexible
// split, with the same multiplications in the same order as
// dispatchFlexible (tiltedFromExps), followed in the same loop by the
// total, emissions and intensity. Each stage runs four hours at a time
// in a vector kernel where there is one (runStage). No hour's mix is
// built, except on the two rare paths that need all of it.
func (w *weather) dispatch(r regions.Region, extra float64, hours int) []float64 {
	ci := make([]float64, hours)
	var b dispatchBlock
	b.start(w, r, extra)
	for h0 := 0; h0 < hours; h0 += blockHours {
		b.load(w, ci, h0, min(blockHours, hours-h0))
		runStage(&b, driftVec, (*dispatchBlock).driftStage)
		runStage(&b, levelVec, (*dispatchBlock).levelStage)
		runStage(&b, tiltVecs, (*dispatchBlock).tiltStage)
		runStage(&b, flexVecs, (*dispatchBlock).flexStage)
	}
	return ci
}

// dispatchBlock is one block of dispatch's hours: the region's constants,
// the block's weather and intensity, and the stage arrays, indexed by
// hour within the block. The vector kernels read it by go_asm.h's field
// offsets, so every value one of them reads is a field of its own.
type dispatchBlock struct {
	// The region, fixed for the whole period.
	baseMix                          regions.Mix
	d                                drift
	coal0, gas0, oil0, solar0, wind0 float64 // baseMix's drifting shares
	n                                int     // the weather's hours
	nm1, half, span                  float64 // n−1, its half, the drift's span
	irrMean, windMean                float64
	hydro, mustRun                   float64
	nuclearEm, geothermalEm          float64 // the must-run sources' emissions
	biomassEm                        float64
	coalEF, gasEF, oilEF             float64
	solarEF, windEF, hydroEF         float64
	baseloadFrac, flexFrac           float64 // coalBaseload and the rest of coal

	// The block: its first hour and length, the weather it reads and the
	// intensity it writes.
	h0, m                       int
	irr, windCF, demand, ci     []float64
	shift, coal, gas, oil       [blockHours]float64
	solar, wind                 [blockHours]float64
	solarOut, windOut, residual [blockHours]float64
	// level is the flexible level where the hour tilts and 0 where it
	// does not; logs is the same with 1 for 0, so the Log and Exp
	// batches run over every hour and the masked ones come out 0 and 1.
	level, logs                      [blockHours]float64
	hydroExp, coalFlexExp, peakerExp [blockHours]float64
}

// start sets the region's fields: r's mix, shifted by extra, drifting
// over w's hours.
func (b *dispatchBlock) start(w *weather, r regions.Region, extra float64) {
	baseMix := r.Mix
	if extra > 0 {
		baseMix = shiftToRenewables(baseMix, extra)
	}
	b.baseMix, b.d = baseMix, newDrift(baseMix)
	b.coal0, b.gas0, b.oil0 = baseMix[regions.Coal], baseMix[regions.Gas], baseMix[regions.Oil]
	b.solar0, b.wind0 = baseMix[regions.Solar], baseMix[regions.Wind]
	b.n = len(w.demand)
	b.nm1, b.half, b.span = float64(b.n-1), float64(b.n-1)/2, driftSpan*r.DeltaRenew
	b.irrMean, b.windMean = w.irrMean, w.windMean
	b.hydro = baseMix[regions.Hydro]
	b.mustRun = baseMix[regions.Nuclear] + baseMix[regions.Geothermal] + baseMix[regions.Biomass]
	b.nuclearEm = baseMix[regions.Nuclear] * regions.Nuclear.EmissionFactor()
	b.geothermalEm = baseMix[regions.Geothermal] * regions.Geothermal.EmissionFactor()
	b.biomassEm = baseMix[regions.Biomass] * regions.Biomass.EmissionFactor()
	b.coalEF, b.gasEF, b.oilEF = regions.Coal.EmissionFactor(), regions.Gas.EmissionFactor(), regions.Oil.EmissionFactor()
	b.solarEF, b.windEF, b.hydroEF = regions.Solar.EmissionFactor(), regions.Wind.EmissionFactor(), regions.Hydro.EmissionFactor()
	b.baseloadFrac, b.flexFrac = coalBaseload, 1-coalBaseload
}

// load makes the block the m hours from h0: their weather and their
// intensity in ci.
func (b *dispatchBlock) load(w *weather, ci []float64, h0, m int) {
	b.h0, b.m = h0, m
	b.irr, b.windCF, b.demand, b.ci = w.irr[h0:h0+m], w.wind[h0:h0+m], w.demand[h0:h0+m], ci[h0:h0+m]
}

// runStage runs one stage over the block's hours: the vector kernel from
// each hour it is handed — four hours at a time, or eight and then four
// (tiltVecs, flexVecs) — and the Go loop over the group of up to four
// where the kernel stopped — a lane on a rare path, or the tail — or,
// with the vector path off, over all of them.
func runStage(b *dispatchBlock, vec func(*dispatchBlock, int) int, stage func(*dispatchBlock, int, int)) {
	for i := 0; i < b.m; {
		j := b.m
		if lanes >= 4 {
			i += vec(b, i)
			j = min(i+4, b.m)
		}
		stage(b, i, j)
		i = j
	}
}

// tiltVecs and flexVecs are the tilt and flex stages' kernels from hour
// i: the eight-lane one where the CPU has eight lanes, then the
// four-lane one from where it stops. driftVec and levelVec, bound by
// their divisions, which cost the same per lane at both widths, have
// no eight-lane form.
func tiltVecs(b *dispatchBlock, i int) int {
	n := 0
	if lanes >= 8 {
		n = tiltVec8(b, i)
	}
	return n + tiltVec(b, i+n)
}

func flexVecs(b *dispatchBlock, i int) int {
	n := 0
	if lanes >= 8 {
		n = flexVec8(b, i)
	}
	return n + flexVec(b, i+n)
}

// driftStage sets hours [lo, hi)'s shift and the five shares it moves.
// Linear mix drift: progress −0.5 at the start of the study, +0.5 at the
// end, so the catalog mix is the midpoint.
func (b *dispatchBlock) driftStage(lo, hi int) {
	for i := lo; i < hi; i++ {
		progress := 0.0
		if b.n > 1 {
			progress = (float64(b.h0+i) - b.half) / b.nm1
		}
		b.shift[i] = b.span * progress
		b.coal[i], b.gas[i], b.oil[i], b.solar[i], b.wind[i] = b.d.shares(b.shift[i])
	}
}

// levelStage sets hours [lo, hi)'s solar and wind output, residual and
// level. Non-dispatchable and must-run generation come first; flexible
// sources share the residual: demand net of must-run and weather-driven
// generation. Hydro absorbs both demand excursions and renewable
// shortfalls, which is what keeps hydro-dominated grids (Sweden, Quebec,
// Norway) at a low, stable intensity.
func (b *dispatchBlock) levelStage(lo, hi int) {
	for i := lo; i < hi; i++ {
		solarGen := 0.0
		if b.irrMean > 0 {
			solarGen = b.solar[i] * b.irr[i] / b.irrMean
		}
		windGen := 0.0
		if b.windMean > 0 {
			windGen = b.wind[i] * b.windCF[i] / b.windMean
		}
		res := b.demand[i] - solarGen - windGen - (b.mustRun + coalBaseload*b.coal[i])
		lvl, lg := 0.0, 1.0
		if res > 0 {
			if _, _, _, _, flex := flexibleShares(b.hydro, b.coal[i], b.gas[i], b.oil[i]); flex > 0 {
				if l := res / flex; tiltable(l) {
					lvl, lg = l, l
				}
			}
		}
		b.solarOut[i], b.windOut[i], b.residual[i], b.level[i], b.logs[i] = solarGen, windGen, res, lvl, lg
	}
}

// tiltStage sets hours [lo, hi)'s Exp of each fractional tilt times
// the logarithm of the level (of 1 where the hour does not tilt): one
// Log batch and one Exp batch per tilt.
func (b *dispatchBlock) tiltStage(lo, hi int) {
	logs := b.logs[lo:hi]
	logBatch(logs)
	for i, lg := range logs {
		b.hydroExp[lo+i], b.coalFlexExp[lo+i], b.peakerExp[lo+i] = hydroFrac*lg, coalFlexFrac*lg, peakerFrac*lg
	}
	expBatch(b.hydroExp[lo:hi])
	expBatch(b.coalFlexExp[lo:hi])
	expBatch(b.peakerExp[lo:hi])
}

// flexStage splits hours [lo, hi)'s residual and sets their intensity.
func (b *dispatchBlock) flexStage(lo, hi int) {
	for i := lo; i < hi; i++ {
		solarGen, windGen, res := b.solarOut[i], b.windOut[i], b.residual[i]
		coalBase := coalBaseload * b.coal[i]
		baseload := b.mustRun + coalBase
		var hydro, coalFlex, gasGen, oilGen float64
		switch {
		case res <= 0:
			// Oversupply: curtail wind first, then solar, then shed
			// must-run coal. Flexible sources stay off.
			excess := -res
			cut := math.Min(excess, windGen)
			windGen -= cut
			excess -= cut
			cut = math.Min(excess, solarGen)
			solarGen -= cut
			excess -= cut
			cut = math.Min(excess, coalBase)
			coalBase -= cut
			baseload -= cut
		case b.level[i] > 0:
			hydroS, coalFlexS, gasS, oilS, _ := flexibleShares(b.hydro, b.coal[i], b.gas[i], b.oil[i])
			hydro, coalFlex, gasGen, oilGen = tiltedFromExps(hydroS, coalFlexS, gasS, oilS,
				b.level[i], b.hydroExp[i], b.coalFlexExp[i], b.peakerExp[i])
			hydro, coalFlex, gasGen, oilGen = rescaleFlexible(res, hydro, coalFlex, gasGen, oilGen)
		default:
			hydro, coalFlex, gasGen, oilGen = dispatchFlexible(shiftToRenewables(b.baseMix, b.shift[i]), res)
		}
		coalGen := coalBase + coalFlex

		total := solarGen + windGen + baseload - coalBase + hydro + coalGen + gasGen + oilGen
		if total <= 0 {
			// Degenerate (zero-demand) hour; carry the mix-weighted
			// average forward.
			b.ci[i] = shiftToRenewables(b.baseMix, b.shift[i]).NominalCI()
			continue
		}
		em := coalGen*b.coalEF + gasGen*b.gasEF + oilGen*b.oilEF +
			solarGen*b.solarEF + windGen*b.windEF + hydro*b.hydroEF +
			b.nuclearEm + b.geothermalEm + b.biomassEm
		b.ci[i] = em / total
	}
}

// dispatchFlexible splits the residual demand among the flexible
// sources: hydro, the non-baseload tranche of coal, gas, and oil. Each
// source's target output tilts with the residual level relative to its
// annual share (see the tilt constants; tiltedShares takes the four
// powers of the one level together), then the outputs are rescaled so
// they sum exactly to the residual, preserving energy balance and
// keeping annual energy shares near the catalog mix.
func dispatchFlexible(mix regions.Mix, residual float64) (hydro, coalFlex, gas, oil float64) {
	hydroShare, coalFlexShare, gasShare, oilShare, flex := flexibleShares(mix[regions.Hydro], mix[regions.Coal], mix[regions.Gas], mix[regions.Oil])
	if flex <= 0 {
		// No flexible capacity: the residual is met by (implicit)
		// imports at gas-like intensity so energy still balances.
		return 0, 0, residual, 0
	}
	level := residual / flex // ~1 at average conditions
	hydro, coalFlex, gas, oil = tiltedShares(hydroShare, coalFlexShare, gasShare, oilShare, level)
	return rescaleFlexible(residual, hydro, coalFlex, gas, oil)
}

// flexibleShares are a mix's shares of the four flexible sources, given
// its hydro, coal, gas and oil shares, and their sum.
func flexibleShares(hydro, coal, gas, oil float64) (hydroShare, coalFlex, gasShare, oilShare, flex float64) {
	coalFlex = (1 - coalBaseload) * coal
	return hydro, coalFlex, gas, oil, hydro + coalFlex + gas + oil
}

// rescaleFlexible scales the tilted outputs to sum to the residual.
func rescaleFlexible(residual, hydro, coalFlex, gas, oil float64) (float64, float64, float64, float64) {
	sum := hydro + coalFlex + gas + oil
	if sum <= 0 {
		return 0, 0, residual, 0
	}
	scale := residual / sum
	return hydro * scale, coalFlex * scale, gas * scale, oil * scale
}

// splitTilt is how math.Pow splits a positive exponent y before it
// multiplies anything: x^y = Exp(frac·Log x) · x^whole, with frac in
// (−0.5, 0.5] — taken in float64 arithmetic, so it is not the decimal
// the constant suggests — and the integer power formed by squaring.
func splitTilt(y float64) (frac float64, whole int) {
	yi, yf := math.Modf(y)
	if yf > 0.5 {
		yf--
		yi++
	}
	return yf, int(yi)
}

// The fractional exponents of the four tilts: −0.45 and −0.1 beside a
// first power for hydro and coal, and one −0.4 beside the square for gas
// and the cube for oil. tiltedShares multiplies out exactly these whole
// parts and takes one Exp for the two peakers, so a tilt edited into a
// different split has to stop the program, not bend the traces.
var hydroFrac, coalFlexFrac, peakerFrac = func() (hydro, coalFlex, peaker float64) {
	hydro, hydroWhole := splitTilt(hydroTilt)
	coalFlex, coalFlexWhole := splitTilt(coalFlexTilt)
	gas, gasWhole := splitTilt(gasTilt)
	oil, oilWhole := splitTilt(oilTilt)
	if hydroWhole != 1 || coalFlexWhole != 1 || gasWhole != 2 || oilWhole != 3 ||
		math.Float64bits(gas) != math.Float64bits(oil) {
		panic("simgrid: the tilt exponents no longer split the way tiltedShares multiplies them out")
	}
	return hydro, coalFlex, gas
}()

// tiltedShares is each flexible share × level^(its tilt), every product
// the float64 that share × math.Pow would give, for one logarithm
// instead of four. Pow computes x^y as Exp(frac·Log x) times x^whole,
// the integer power by squaring on Frexp(x)'s mantissa with the binary
// exponents summed beside it and applied last (see splitTilt). Log(level)
// and Frexp(level) do not depend on the tilt, and gas and oil have the
// same frac, so the four powers need one Log, one Frexp, at most three
// Exp and the multiplications Pow would do, in Pow's order. A source the
// mix does not have skips its power and stays the zero share itself:
// 72 of the 123 catalog regions lack at least one flexible source (49
// burn no oil, 28 no coal, 17 have no hydro). That the result is Pow's,
// bit for bit, is the implementation's doing and not the definition's:
// TestFlexPowersMatchPow holds it to math.Pow on the running toolchain,
// and TestTraceBitsGolden to the traces Pow itself produced.
func tiltedShares(hydroShare, coalFlexShare, gasShare, oilShare, level float64) (hydro, coalFlex, gas, oil float64) {
	if !tiltable(level) {
		// Zero, negative, infinite or NaN — nothing dispatch produces —
		// goes through Pow's special cases, not around them.
		return tilted(hydroShare, level, hydroTilt), tilted(coalFlexShare, level, coalFlexTilt),
			tilted(gasShare, level, gasTilt), tilted(oilShare, level, oilTilt)
	}
	lg := math.Log(level)
	var hydroExp, coalFlexExp, peakerExp float64
	if hydroShare != 0 {
		hydroExp = math.Exp(hydroFrac * lg)
	}
	if coalFlexShare != 0 {
		coalFlexExp = math.Exp(coalFlexFrac * lg)
	}
	if gasShare != 0 || oilShare != 0 {
		peakerExp = math.Exp(peakerFrac * lg)
	}
	return tiltedFromExps(hydroShare, coalFlexShare, gasShare, oilShare, level, hydroExp, coalFlexExp, peakerExp)
}

// tiltable reports whether tiltedShares takes level's logarithm: a
// positive, finite level.
func tiltable(level float64) bool { return level > 0 && level <= math.MaxFloat64 }

// tiltedFromExps is tiltedShares given the Exp of each fractional tilt
// times Log(level) (hydroFrac, coalFlexFrac, peakerFrac): the Frexp and
// the multiplications, in Pow's order. An Exp whose source the mix
// lacks is not read.
func tiltedFromExps(hydroShare, coalFlexShare, gasShare, oilShare, level, hydroExp, coalFlexExp, peakerExp float64) (hydro, coalFlex, gas, oil float64) {
	x1, xe := math.Frexp(level)
	hydro, coalFlex, gas, oil = hydroShare, coalFlexShare, gasShare, oilShare
	if hydroShare != 0 {
		hydro *= scaleByPow2(hydroExp*x1, xe)
	}
	if coalFlexShare != 0 {
		coalFlex *= scaleByPow2(coalFlexExp*x1, xe)
	}
	if gasShare != 0 || oilShare != 0 {
		// x1² with its mantissa brought back into [½, 1).
		sq, sqe := x1*x1, xe<<1
		if sq < .5 {
			sq += sq
			sqe--
		}
		if gasShare != 0 {
			gas *= scaleByPow2(peakerExp*sq, sqe)
		}
		if oilShare != 0 {
			oil *= scaleByPow2(peakerExp*x1*sq, xe+sqe)
		}
	}
	return hydro, coalFlex, gas, oil
}

// scaleByPow2 is math.Ldexp(a, e) for finite a. When 2^e is itself a
// normal float64 the product a·2^e is one correctly rounded operation on
// the same real number Ldexp rounds (exact when the result is normal,
// rounded once when it is subnormal, 0 or ±Inf beyond), so the two agree
// without Ldexp's unpacking; past that range — an oil or gas power about
// to over- or underflow — Ldexp does it.
func scaleByPow2(a float64, e int) float64 {
	if e < -1022 || e > 1023 {
		return math.Ldexp(a, e)
	}
	return a * math.Float64frombits(uint64(e+1023)<<52)
}

// tilted is share × level^tilt by math.Pow itself, for the levels
// tiltedShares does not take a logarithm of. A zero share is returned as
// it is, whatever the level.
func tilted(share, level, tilt float64) float64 {
	if share == 0 {
		return share
	}
	return share * math.Pow(level, tilt)
}
