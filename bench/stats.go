package main

import (
	"math"
	"sort"
	"time"
)

// samples summarizes one timing series the way every report row needs
// it: the quantiles plus the extremes and the count, so a reader can
// judge how much a percentile is worth.
type samples struct {
	n        int
	min, max float64
	sorted   []float64
}

func summarize(xs []float64) samples {
	s := samples{n: len(xs), sorted: append([]float64(nil), xs...)}
	sort.Float64s(s.sorted)
	if s.n > 0 {
		s.min, s.max = s.sorted[0], s.sorted[s.n-1]
	}
	return s
}

// quantile is the nearest-rank quantile of the series, NaN when empty.
func (s samples) quantile(q float64) float64 {
	if s.n == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(s.n))) - 1
	return s.sorted[min(max(i, 0), s.n-1)]
}

func (s samples) median() float64 { return s.quantile(0.5) }

func median(xs []float64) float64 { return summarize(xs).median() }

// in converts durations to floats in the given unit.
func in(unit time.Duration, ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	return out
}

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// timeIt returns fn's wall time.
func timeIt(fn func()) time.Duration {
	t0 := time.Now()
	fn()
	return time.Since(t0)
}
