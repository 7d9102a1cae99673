// Package workload models the batch jobs of the paper's Table 1: the
// job-length buckets taken from Google's Borg trace, deferral slack
// choices, and the job-length weightings derived from the Azure and
// Google cluster traces.
//
// Jobs are energy-normalized: each job draws 1 kW for its whole
// duration ("energy-optimized 100% usage" in Table 1), so the carbon
// cost of running a job over a set of hours is simply the sum of the
// hourly carbon intensities over those hours, in g·CO₂eq.
package workload

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"carbonshift/internal/rng"
)

// BatchLengths are the batch job-length buckets in hours, from version
// 3 of the Borg trace as used in Table 1.
var BatchLengths = []int{1, 6, 12, 24, 48, 96, 168}

// Slack choices examined by the paper (§5.2.6), in hours.
const (
	Slack24H = 24
	Slack7D  = 7 * 24
	Slack24D = 24 * 24
	Slack30D = 30 * 24
	Slack1Y  = 365 * 24
)

// Slacks lists the slack sweep of Figure 10(d), ascending.
var Slacks = []int{Slack24H, Slack7D, Slack24D, Slack30D, Slack1Y}

// Distribution is a weighting over batch job lengths. Weights are
// resource-hour weights: they describe what fraction of the cluster's
// energy is consumed by jobs of each length, which is what determines
// fleet-level carbon numbers.
type Distribution struct {
	Name string
	// lengths ascend and ws[i] is the normalized weight of lengths[i];
	// both are fixed at construction. Every sum below walks them in this
	// order, which keeps the floating-point results bit-identical on
	// every call (a map walk would randomize the low bits).
	lengths []int
	ws      []float64
	// total is rng.WeightTotal(ws), so Sample checks and sums ws once.
	total float64
}

// NewDistribution builds a distribution from explicit weights. Weights
// must be finite and non-negative with a positive, finite sum; they are
// normalized to 1.
func NewDistribution(name string, weights map[int]float64) (Distribution, error) {
	lengths := make([]int, 0, len(weights))
	for l := range weights {
		lengths = append(lengths, l)
	}
	sort.Ints(lengths)
	// Sum in ascending length order: the normalization constant — and
	// with it every downstream result — must be bit-identical across
	// runs, which map iteration order would break.
	var total float64
	for _, l := range lengths {
		w := weights[l]
		if l <= 0 {
			return Distribution{}, fmt.Errorf("workload: non-positive length %d in distribution %s", l, name)
		}
		if !(w >= 0 && w <= math.MaxFloat64) {
			return Distribution{}, fmt.Errorf("workload: weight %v for length %d in distribution %s is negative or not finite", w, l, name)
		}
		total += w
	}
	if total == 0 || total > math.MaxFloat64 {
		return Distribution{}, fmt.Errorf("workload: distribution %s has total weight %v", name, total)
	}
	ws := make([]float64, len(lengths))
	for i, l := range lengths {
		ws[i] = weights[l] / total
	}
	return Distribution{Name: name, lengths: lengths, ws: ws, total: rng.WeightTotal(ws)}, nil
}

func mustDistribution(name string, weights map[int]float64) Distribution {
	d, err := NewDistribution(name, weights)
	if err != nil {
		panic(err)
	}
	return d
}

// Lengths returns a copy of the supported lengths in ascending order
// (empty for the zero Distribution).
func (d Distribution) Lengths() []int { return slices.Clone(d.lengths) }

// WeightedMean combines a per-length metric into the distribution's
// fleet-level value: Σ weight(l) · value(l), summed in ascending length
// order. Lengths absent from values contribute zero.
func (d Distribution) WeightedMean(values map[int]float64) float64 {
	var out float64
	for i, l := range d.lengths {
		out += d.ws[i] * values[l]
	}
	return out
}

// Sample draws a job length from the distribution. It allocates
// nothing and takes one draw from src.
func (d Distribution) Sample(src *rng.Source) int {
	return d.lengths[src.PickWithTotal(d.ws, d.total)]
}

// The three job-length weightings of Figure 10. Equal spreads energy
// evenly over the Table 1 buckets; Azure and Google follow the paper's
// characterization of the public cluster traces, where long jobs
// (>48 h) dominate resource usage — in the Google trace, ~1% of jobs
// (the week-long ones) account for ~90% of resource-hours.
var (
	DistEqual = mustDistribution("equal", map[int]float64{
		1: 1, 6: 1, 12: 1, 24: 1, 48: 1, 96: 1, 168: 1,
	})
	DistAzure = mustDistribution("azure", map[int]float64{
		1: .02, 6: .02, 12: .03, 24: .05, 48: .08, 96: .15, 168: .65,
	})
	DistGoogle = mustDistribution("google", map[int]float64{
		1: .03, 6: .04, 12: .05, 24: .08, 48: .10, 96: .10, 168: .60,
	})
)
