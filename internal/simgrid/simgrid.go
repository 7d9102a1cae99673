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
// and both stages walk their hours in blocks whose Exp, Log and Cos are
// batch calls (kernels.go), vector code on amd64. Generate,
// GenerateRegion and the cached entry points (cache.go) run one after
// the other for a whole base trace; WhatIf draws the weather once and
// dispatches it at several ExtraRenewables levels over the hours its
// caller reads, handing the series back uncached.
package simgrid

import (
	"fmt"
	"math"
	"time"

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
	if c.ExtraRenewables < 0 || c.ExtraRenewables > 1 {
		return fmt.Errorf("simgrid: ExtraRenewables %v outside [0, 1]", c.ExtraRenewables)
	}
	return nil
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
	traces := make([]*trace.Trace, 0, len(regs))
	for _, r := range regs {
		traces = append(traces, simulate(r, cfg))
	}
	if len(traces) == 0 {
		return nil, fmt.Errorf("simgrid: no regions given")
	}
	return trace.NewSet(traces)
}

// GenerateAll simulates the full 123-region catalog.
func GenerateAll(cfg Config) (*trace.Set, error) {
	return Generate(regions.All(), cfg)
}

// GenerateRegion simulates a single region.
func GenerateRegion(r regions.Region, cfg Config) (*trace.Trace, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	return simulate(r, cfg), nil
}

// WhatIf simulates one region at several ExtraRenewables levels — the
// §6.3 "what if the grid gets greener" sweep — and returns, per level,
// the carbon intensity of the first `hours` hours: out[i] is, bit for
// bit, GenerateRegion(r, cfg with ExtraRenewables: levels[i]).CI[:hours].
// cfg.ExtraRenewables itself is not read. The weather is drawn once for
// all levels and only the hours asked for are dispatched, so a sweep
// that reads the head of each trace pays for one simulation plus the
// head, not one simulation per level. Nothing enters the trace cache:
// the series are the caller's to fold and drop.
func WhatIf(r regions.Region, cfg Config, levels []float64, hours int) ([][]float64, error) {
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
	f, rshare := mix.FossilShare(), mix.RenewableShare()
	if shift > 0 {
		if shift > f {
			shift = f
		}
	} else if -shift > rshare {
		shift = -rshare
	}
	if shift == 0 {
		return mix
	}
	// Each side gives and takes in proportion to its sources' shares; a
	// receiving side with no share of its own takes it all on solar (or,
	// moving the other way, on gas).
	out := mix
	if shift > 0 {
		out[regions.Coal] -= shift * mix[regions.Coal] / f
		out[regions.Gas] -= shift * mix[regions.Gas] / f
		out[regions.Oil] -= shift * mix[regions.Oil] / f
		if rshare == 0 {
			out[regions.Solar] += shift
		} else {
			out[regions.Solar] += shift * mix[regions.Solar] / rshare
			out[regions.Wind] += shift * mix[regions.Wind] / rshare
		}
	} else {
		out[regions.Solar] += shift * mix[regions.Solar] / rshare // shift < 0: reduces
		out[regions.Wind] += shift * mix[regions.Wind] / rshare
		if f == 0 {
			out[regions.Gas] -= shift
		} else {
			out[regions.Coal] -= shift * mix[regions.Coal] / f
			out[regions.Gas] -= shift * mix[regions.Gas] / f
			out[regions.Oil] -= shift * mix[regions.Oil] / f
		}
	}
	return out
}

// simulate produces one region's hourly trace: the weather stage, then
// the dispatch stage over every hour.
func simulate(r regions.Region, cfg Config) *trace.Trace {
	w := drawWeather(r, cfg)
	return trace.New(r.Code, cfg.Start, w.dispatch(r, cfg.ExtraRenewables, cfg.Hours))
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
}

// blockHours is the length of the blocks drawWeather and dispatch walk
// their hours in. Each stage of a block runs over all of its hours
// before the next starts, so every transcendental of a block is one
// batch call (kernels.go) on a buffer on the caller's stack.
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
// Each block of hours takes four stages: the calendar terms; the
// block's Gaussian draws of the cloud, wind and demand-noise streams
// (normBatch); the AR(1) chains of cloud and wind and the demand sum,
// hour after hour; and the two logistic maps, one Exp batch for both.
// The three generators are independent, so each stream's values are
// those of a loop of its own whatever the staging.
func drawWeather(r regions.Region, cfg Config) *weather {
	n := cfg.Hours
	src := rngFor(r.Code, cfg)
	// The three streams are split in this order whatever is drawn from
	// them afterwards: cloud, wind, demand noise.
	cloudSrc, windSrc, demandSrc := src.Split(), src.Split(), src.Split()
	w := &weather{
		irr:    make([]float64, n),
		wind:   make([]float64, n),
		demand: make([]float64, n),
	}
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
	var cosHourAngle, diurnal [24]float64
	minutes := float64(cfg.Start.Minute()) / 60
	for hod := range cosHourAngle {
		localHour := float64(hod) + r.Lon/15
		hourAngle := (localHour - 12) * 15 * math.Pi / 180
		cosHourAngle[hod] = math.Cos(hourAngle)

		localHour = float64(hod) + minutes + r.Lon/15
		shape := 0.8*math.Cos(2*math.Pi*(localHour-17)/24) +
			0.2*math.Cos(4*math.Pi*(localHour-9)/24)
		diurnal[hod] = diurnalAmp * r.DemandSwing * shape
	}

	latRad := r.Lat * math.Pi / 180
	sinLat, cosLat := math.Sin(latRad), math.Cos(latRad)
	// Seasonal demand peaks in local winter, scaled by latitude
	// (tropical grids have flat seasons).
	peakDoy := 15.0
	if r.Lat < 0 {
		peakDoy = 196
	}
	latScale := math.Min(1, math.Abs(r.Lat)/50)

	hod := cfg.Start.Hour()
	year, yday := cfg.Start.Year(), cfg.Start.YearDay()
	weekday := cfg.Start.Weekday()
	// By day: solar declination, the seasonal and weekly demand terms.
	var sinSin, cosCos, seasonal, weekly float64
	startDay := func() {
		doy := float64(yday)
		decl := 23.45 * math.Pi / 180 * math.Sin(2*math.Pi*(284+doy)/365.25)
		sinSin, cosCos = sinLat*math.Sin(decl), cosLat*math.Cos(decl)
		seasonal = seasonalAmp * latScale * math.Cos(2*math.Pi*(doy-peakDoy)/365.25)
		weekly = weeklyAmp * r.DemandSwing * 0.3
		if weekday == time.Saturday || weekday == time.Sunday {
			weekly = weeklyAmp * r.DemandSwing * -0.75
		}
	}
	startDay()

	// The block's cloud and wind draws, then their logistic arguments,
	// side by side for one Exp batch; the demand noise; normBatch's
	// scratch.
	var buf [4 * blockHours]float64
	for h0 := 0; h0 < n; h0 += blockHours {
		m := min(blockHours, n-h0)
		irr, wind, demand := w.irr[h0:h0+m], w.wind[h0:h0+m], w.demand[h0:h0+m]
		cloudE, windE := buf[:m], buf[m:2*m]
		noise, scratch := buf[2*blockHours:][:m], buf[3*blockHours:][:m]

		for i := range irr {
			if hod == 24 {
				hod = 0
				weekday = (weekday + 1) % 7
				if yday++; yday > daysIn(year) {
					year, yday = year+1, 1
				}
				startDay()
			}
			// Solar elevation (latitude, declination, local hour); the
			// cloud attenuation multiplies it below.
			sinElev := sinSin + cosCos*cosHourAngle[hod]
			if sinElev < 0 {
				sinElev = 0
			}
			irr[i] = sinElev
			demand[i] = 1 + diurnal[hod] + weekly + seasonal
			hod++
		}

		normBatch(cloudSrc, 0, cloudSigma, cloudE, scratch)
		normBatch(windSrc, 0, windSigma, windE, scratch)
		normBatch(demandSrc, 0, demandNoise, noise, scratch)

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
		// (0, 1).
		expBatch(buf[:2*m])
		for i := range irr {
			irr[i] *= 0.25 + 0.75/(1+cloudE[i])
			wind[i] = 1 / (1 + windE[i])
		}
	}
	w.irrMean, w.windMean = mean(w.irr), mean(w.wind)
	return w
}

// normBatch sets each out[i] to the next src.Norm(mean, stddev), bit for
// bit: the draws' logarithms and cosines are two batch calls. scratch
// must be at least as long as out.
func normBatch(src *rng.Source, mean, stddev float64, out, scratch []float64) {
	cosArgs := scratch[:len(out)]
	for i := range out {
		out[i], cosArgs[i] = src.NormArgs()
	}
	logBatch(out)
	cosBatch(cosArgs)
	for i, lg := range out {
		out[i] = rng.NormOf(mean, stddev, lg, cosArgs[i])
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
// A block of hours takes three stages: each hour's drifted mix and the
// generation that does not depend on the flexible sources, collecting
// the residual levels the flexible sources tilt with; one Log batch and
// one Exp batch of the three fractional tilts over those levels; and
// each hour's split, rescaling and intensity. The split is the one
// dispatchFlexible makes, with the same multiplications in the same
// order (tiltedFromExps).
func (w *weather) dispatch(r regions.Region, extra float64, hours int) []float64 {
	ci := make([]float64, hours)
	baseMix := r.Mix
	if extra > 0 {
		baseMix = shiftToRenewables(baseMix, extra)
	}
	n := len(w.demand)
	half := float64(n-1) / 2
	var (
		block [blockHours]dispatchHour
		logs  [blockHours]float64
		exps  [3 * blockHours]float64
	)
	for h0 := 0; h0 < hours; h0 += blockHours {
		hrs := block[:min(blockHours, hours-h0)]
		k := 0 // hours whose level is in logs
		for i := range hrs {
			h := h0 + i
			// Linear mix drift: progress -0.5 at the start of the study,
			// +0.5 at the end, so the catalog mix is the midpoint.
			progress := 0.0
			if n > 1 {
				progress = (float64(h) - half) / float64(n-1)
			}
			hr := &hrs[i]
			hr.mix = shiftToRenewables(baseMix, driftSpan*r.DeltaRenew*progress)
			mix := &hr.mix

			// Non-dispatchable and must-run generation.
			hr.solar = 0.0
			if w.irrMean > 0 {
				hr.solar = mix[regions.Solar] * w.irr[h] / w.irrMean
			}
			hr.wnd = 0.0
			if w.windMean > 0 {
				hr.wnd = mix[regions.Wind] * w.wind[h] / w.windMean
			}
			hr.coalBase = coalBaseload * mix[regions.Coal]
			hr.baseload = mix[regions.Nuclear] + mix[regions.Geothermal] +
				mix[regions.Biomass] + hr.coalBase

			// Flexible sources share the residual: demand net of must-run
			// and weather-driven generation. Hydro absorbs both demand
			// excursions and renewable shortfalls, which is what keeps
			// hydro-dominated grids (Sweden, Quebec, Norway) at a low,
			// stable intensity.
			hr.residual = w.demand[h] - hr.solar - hr.wnd - hr.baseload
			hr.level = 0
			if hr.residual > 0 {
				if _, _, _, _, flex := flexibleShares(mix); flex > 0 {
					if level := hr.residual / flex; tiltable(level) {
						hr.level, logs[k] = level, level
						k++
					}
				}
			}
		}

		logBatch(logs[:k])
		for j, lg := range logs[:k] {
			exps[j], exps[k+j], exps[2*k+j] = hydroFrac*lg, coalFlexFrac*lg, peakerFrac*lg
		}
		expBatch(exps[:3*k])

		j := 0
		for i := range hrs {
			hr := &hrs[i]
			mix := &hr.mix
			solar, wnd, coalBase, baseload := hr.solar, hr.wnd, hr.coalBase, hr.baseload
			var hydro, coalFlex, gas, oil float64
			switch {
			case hr.residual <= 0:
				// Oversupply: curtail wind first, then solar, then shed
				// must-run coal. Flexible sources stay off.
				excess := -hr.residual
				cut := math.Min(excess, wnd)
				wnd -= cut
				excess -= cut
				cut = math.Min(excess, solar)
				solar -= cut
				excess -= cut
				cut = math.Min(excess, coalBase)
				coalBase -= cut
				baseload -= cut
			case hr.level > 0:
				hydroShare, coalFlexShare, gasShare, oilShare, _ := flexibleShares(mix)
				hydro, coalFlex, gas, oil = tiltedFromExps(hydroShare, coalFlexShare, gasShare, oilShare,
					hr.level, exps[j], exps[k+j], exps[2*k+j])
				hydro, coalFlex, gas, oil = rescaleFlexible(hr.residual, hydro, coalFlex, gas, oil)
				j++
			default:
				hydro, coalFlex, gas, oil = dispatchFlexible(*mix, hr.residual)
			}
			coal := coalBase + coalFlex

			total := solar + wnd + baseload - coalBase + hydro + coal + gas + oil
			if total <= 0 {
				// Degenerate (zero-demand) hour; carry the mix-weighted
				// average forward.
				ci[h0+i] = mix.NominalCI()
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
			ci[h0+i] = em / total
		}
	}
	return ci
}

// dispatchHour is one hour of dispatch's first stage: the drifted mix,
// the generation that does not depend on the flexible sources, the
// residual demand left to them and — when the batch takes the hour —
// its level (residual over flexible share); 0 otherwise.
type dispatchHour struct {
	mix                                             regions.Mix
	solar, wnd, coalBase, baseload, residual, level float64
}

// dispatchFlexible splits the residual demand among the flexible
// sources: hydro, the non-baseload tranche of coal, gas, and oil. Each
// source's target output tilts with the residual level relative to its
// annual share (see the tilt constants; tiltedShares takes the four
// powers of the one level together), then the outputs are rescaled so
// they sum exactly to the residual, preserving energy balance and
// keeping annual energy shares near the catalog mix.
func dispatchFlexible(mix regions.Mix, residual float64) (hydro, coalFlex, gas, oil float64) {
	hydroShare, coalFlexShare, gasShare, oilShare, flex := flexibleShares(&mix)
	if flex <= 0 {
		// No flexible capacity: the residual is met by (implicit)
		// imports at gas-like intensity so energy still balances.
		return 0, 0, residual, 0
	}
	level := residual / flex // ~1 at average conditions
	hydro, coalFlex, gas, oil = tiltedShares(hydroShare, coalFlexShare, gasShare, oilShare, level)
	return rescaleFlexible(residual, hydro, coalFlex, gas, oil)
}

// flexibleShares are the mix's shares of the four flexible sources and
// their sum.
func flexibleShares(mix *regions.Mix) (hydro, coalFlex, gas, oil, flex float64) {
	hydro, coalFlex = mix[regions.Hydro], (1-coalBaseload)*mix[regions.Coal]
	gas, oil = mix[regions.Gas], mix[regions.Oil]
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

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, v := range xs {
		s += v
	}
	return s / float64(len(xs))
}
