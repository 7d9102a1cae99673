package schedd

import (
	"fmt"
	"sort"
	"strings"

	"carbonshift/internal/sched"
)

// PolicyByName resolves a scheduling policy from its wire name, as used
// by cmd/schedd's -policy flag. Percentile and window parameterize the
// gated policies and are ignored by the rest. A gated policy refuses a
// percentile outside [0, 100] (NaN included) here: the fleet would
// otherwise accept it and fail on the first hour with history.
func PolicyByName(name string, percentile float64, window int) (sched.Policy, error) {
	var gated sched.Policy
	switch name {
	case "fifo":
		return sched.FIFO{}, nil
	case "greenest-first":
		return sched.GreenestFirst{}, nil
	case "carbon-gate":
		gated = sched.CarbonGate{Percentile: percentile, Window: window}
	case "forecast-gate":
		gated = sched.ForecastGate{Percentile: percentile}
	case "spatiotemporal":
		gated = sched.SpatioTemporal{Percentile: percentile, Window: window}
	default:
		return nil, fmt.Errorf("schedd: unknown policy %q (have %s)", name, strings.Join(PolicyNames(), ", "))
	}
	if !(percentile >= 0 && percentile <= 100) {
		return nil, fmt.Errorf("schedd: policy %s: percentile %v outside [0, 100]", name, percentile)
	}
	return gated, nil
}

// PolicyNames lists the resolvable policy names, sorted.
func PolicyNames() []string {
	names := []string{"fifo", "carbon-gate", "forecast-gate", "greenest-first", "spatiotemporal"}
	sort.Strings(names)
	return names
}
