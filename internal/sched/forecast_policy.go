package sched

import (
	"carbonshift/internal/forecast"
	"carbonshift/internal/stats"
)

// ForecastGate is the deployable version of CarbonGate: instead of
// comparing the current intensity against a *trailing* percentile (a
// backward-looking proxy), it forecasts the next day from the trailing
// window with a real model and runs only when the current hour is
// among the predicted-cheapest hours ahead. This is how a production
// scheduler without a carbon-intensity oracle would actually decide,
// and it sees no future data.
type ForecastGate struct {
	// Model produces the day-ahead view; nil means forecast.Blended.
	Model forecast.Forecaster
	// Percentile in (0, 100): run when the current intensity is at or
	// below this percentile of the forecast horizon.
	Percentile float64
	// HistoryHours is how much trailing data to feed the model
	// (default 21 days).
	HistoryHours int
	// HorizonHours is the forecast lookahead (default 24).
	HorizonHours int
}

// Name implements Policy.
func (ForecastGate) Name() string { return "forecast-gate" }

func (p ForecastGate) model() forecast.Forecaster {
	if p.Model == nil {
		return forecast.Blended{}
	}
	return p.Model
}

func (p ForecastGate) history() int {
	if p.HistoryHours <= 0 {
		return 21 * 24
	}
	return p.HistoryHours
}

func (p ForecastGate) horizon() int {
	if p.HorizonHours <= 0 {
		return 24
	}
	return p.HorizonHours
}

// Plan implements Policy.
func (p ForecastGate) Plan(t *Tick) []Placement { return plan(t, atOrigin, p.threshold) }

func (p ForecastGate) threshold(t *Tick, region int) float64 {
	pred, err := p.model().Forecast(t.Lookback(region, p.history()), p.horizon())
	if err != nil || len(pred) == 0 {
		// Without enough history for the model, run unconditionally
		// (equivalent to FIFO during warmup).
		return t.CI[region]
	}
	return stats.Percentile(pred, p.Percentile)
}
