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

// GateParams are the parameters a gated policy runs with, the ones
// PolicyByName takes: /v1/stats echoes them beside the policy's name, so
// a follower resolves the primary's exact policy.
type GateParams struct {
	Percentile float64 `json:"percentile"`
	Window     int     `json:"window,omitempty"` // carbon-gate and spatiotemporal only
}

// gateParams returns the parameters policy's gate runs with, nil for an
// ungated policy.
func gateParams(policy sched.Policy) *GateParams {
	switch p := policy.(type) {
	case sched.CarbonGate:
		return &GateParams{Percentile: p.Percentile, Window: p.Window}
	case sched.ForecastGate:
		return &GateParams{Percentile: p.Percentile}
	case sched.SpatioTemporal:
		return &GateParams{Percentile: p.Percentile, Window: p.Window}
	}
	return nil
}

// PolicyNames lists the resolvable policy names, sorted.
func PolicyNames() []string {
	names := []string{"fifo", "carbon-gate", "forecast-gate", "greenest-first", "spatiotemporal"}
	sort.Strings(names)
	return names
}
