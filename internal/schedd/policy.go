package schedd

import (
	"fmt"
	"strings"

	"carbonshift/internal/sched"
)

// policyTable is the one table of the resolvable policies, sorted by
// wire name (each policy's Name). build makes a policy from its gate
// parameters (CarbonGate and SpatioTemporal have GateParams' fields);
// gate reads them back from one it made, and is nil for the ungated
// policies, which take none.
var policyTable = []struct {
	name  string
	build func(GateParams) sched.Policy
	gate  func(sched.Policy) (GateParams, bool)
}{
	{"carbon-gate", func(g GateParams) sched.Policy { return sched.CarbonGate(g) },
		func(p sched.Policy) (GateParams, bool) { c, ok := p.(sched.CarbonGate); return GateParams(c), ok }},
	{"fifo", func(GateParams) sched.Policy { return sched.FIFO{} }, nil},
	{"forecast-gate", func(g GateParams) sched.Policy { return sched.ForecastGate{Percentile: g.Percentile} },
		func(p sched.Policy) (GateParams, bool) {
			f, ok := p.(sched.ForecastGate)
			return GateParams{Percentile: f.Percentile}, ok
		}},
	{"greenest-first", func(GateParams) sched.Policy { return sched.GreenestFirst{} }, nil},
	{"spatiotemporal", func(g GateParams) sched.Policy { return sched.SpatioTemporal(g) },
		func(p sched.Policy) (GateParams, bool) { st, ok := p.(sched.SpatioTemporal); return GateParams(st), ok }},
}

// PolicyByName resolves a scheduling policy from its wire name, as used
// by cmd/schedd's -policy flag. Percentile and window parameterize the
// gated policies and are ignored by the rest. A gated policy refuses a
// percentile outside [0, 100] (NaN included) here: the fleet would
// otherwise accept it and fail on the first hour with history.
func PolicyByName(name string, percentile float64, window int) (sched.Policy, error) {
	for _, p := range policyTable {
		if p.name != name {
			continue
		}
		if p.gate != nil && !(percentile >= 0 && percentile <= 100) {
			return nil, fmt.Errorf("schedd: policy %s: percentile %v outside [0, 100]", name, percentile)
		}
		return p.build(GateParams{Percentile: percentile, Window: window}), nil
	}
	return nil, fmt.Errorf("schedd: unknown policy %q (have %s)", name, strings.Join(PolicyNames(), ", "))
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
	for _, p := range policyTable {
		if p.name == policy.Name() && p.gate != nil {
			if g, ok := p.gate(policy); ok {
				return &g
			}
		}
	}
	return nil
}

// PolicyNames lists the resolvable policy names, sorted.
func PolicyNames() []string {
	names := make([]string, len(policyTable))
	for i, p := range policyTable {
		names[i] = p.name
	}
	return names
}
