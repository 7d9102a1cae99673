// Package workload models the cloud jobs of the paper's Table 1: batch
// and interactive classes, the job-length buckets taken from Google's
// Borg trace, deferral slack choices, and the job-length weightings
// derived from the Azure and Google cluster traces.
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

// Class distinguishes the two broad workload classes of §2.2.
type Class int

// Workload classes.
const (
	// Batch jobs have temporal flexibility (deferrable, possibly
	// interruptible) and are migratable.
	Batch Class = iota
	// Interactive jobs are sub-hour requests with no temporal
	// flexibility; they may still be routed (migrated) spatially.
	Interactive
)

func (c Class) String() string {
	switch c {
	case Batch:
		return "batch"
	case Interactive:
		return "interactive"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// InteractiveHours is the nominal duration of an interactive request
// (Table 1 lists 0.01 h ≈ 36 s).
const InteractiveHours = 0.01

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

// Job is one schedulable unit of work.
type Job struct {
	// Class is batch or interactive.
	Class Class
	// LengthHours is the uninterrupted execution time. Batch jobs use
	// whole hours (the trace granularity); interactive jobs use
	// InteractiveHours.
	LengthHours float64
	// Arrival is the submission time as an hour index into the trace.
	Arrival int
	// SlackHours bounds how long the start may be deferred.
	SlackHours int
	// Interruptible marks jobs that may be suspended and resumed.
	Interruptible bool
	// Migratable marks jobs that may run outside their origin region.
	Migratable bool
	// Origin is the submission region code.
	Origin string
}

// Validate reports structural problems with the job.
func (j Job) Validate() error {
	if j.LengthHours <= 0 {
		return fmt.Errorf("workload: job length %v must be positive", j.LengthHours)
	}
	if j.Arrival < 0 {
		return fmt.Errorf("workload: negative arrival %d", j.Arrival)
	}
	if j.SlackHours < 0 {
		return fmt.Errorf("workload: negative slack %d", j.SlackHours)
	}
	if j.Class == Interactive {
		if j.SlackHours != 0 {
			return fmt.Errorf("workload: interactive job with slack %d", j.SlackHours)
		}
		if j.Interruptible {
			return fmt.Errorf("workload: interactive job marked interruptible")
		}
	}
	return nil
}

// WholeHours returns the job length rounded up to whole trace hours
// (minimum 1), the granularity at which batch scheduling operates.
func (j Job) WholeHours() int {
	h := int(j.LengthHours)
	if float64(h) < j.LengthHours {
		h++
	}
	if h < 1 {
		h = 1
	}
	return h
}

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
	return Distribution{Name: name, lengths: lengths, ws: ws}, nil
}

func mustDistribution(name string, weights map[int]float64) Distribution {
	d, err := NewDistribution(name, weights)
	if err != nil {
		panic(err)
	}
	return d
}

// Weight returns the normalized weight of a job length (0 for lengths
// not in the distribution).
func (d Distribution) Weight(length int) float64 {
	if i := sort.SearchInts(d.lengths, length); i < len(d.lengths) && d.lengths[i] == length {
		return d.ws[i]
	}
	return 0
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
	return d.lengths[src.Pick(d.ws)]
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
