package spatial

import (
	"fmt"

	"carbonshift/internal/trace"
)

// The paper's ∞-migration policy is deliberately overhead-free: it is
// an upper bound, and its headline result is that even so it beats a
// single migration by less than 10 g·CO₂eq. This file supplies the
// missing realism for the repository's ablation: a per-migration
// carbon cost derived from the job's state size, which lets callers
// show that any nonzero overhead quickly erases — and then inverts —
// the region-hopping advantage.

// MigrationCost models the carbon cost of moving a job once: the
// energy to checkpoint, transfer, and restore its state, converted at
// a representative intensity.
type MigrationCost struct {
	// StateGB is the job's memory+disk state size in gigabytes.
	StateGB float64
	// WhPerGB is the end-to-end energy per transferred gigabyte
	// (network + serialization on both sides). Wide-area transfer
	// estimates cluster around a few watt-hours per GB.
	WhPerGB float64
	// IntensityG is the carbon intensity applied to the transfer
	// energy, in g·CO₂eq/kWh.
	IntensityG float64
}

// DefaultMigration is a mid-size batch job: 64 GB of state at 4 Wh/GB
// charged at a 400 g/kWh world-average-ish intensity.
var DefaultMigration = MigrationCost{StateGB: 64, WhPerGB: 4, IntensityG: 400}

// PerMove returns the g·CO₂eq charged for one migration.
func (m MigrationCost) PerMove() float64 {
	return m.StateGB * m.WhPerGB / 1000 * m.IntensityG
}

// Validate reports configuration errors.
func (m MigrationCost) Validate() error {
	if m.StateGB < 0 || m.WhPerGB < 0 || m.IntensityG < 0 {
		return fmt.Errorf("spatial: negative migration cost parameters %+v", m)
	}
	return nil
}

// InfMigrationWithOverhead runs the clairvoyant hourly-hopping policy
// but charges PerMove for every region change (the initial placement
// is free, matching the 1-migration accounting). It returns the total
// cost and the number of migrations performed.
//
// The hop decision itself stays greedy on intensity — the point is to
// price the paper's idealized policy, not to design a better one; a
// policy that anticipates overheads would hop less and land between
// this and OneMigrationCost.
func InfMigrationWithOverhead(set *trace.Set, candidates []string, arrival, length int, cost MigrationCost) (float64, int, error) {
	if err := cost.Validate(); err != nil {
		return 0, 0, err
	}
	if len(candidates) == 0 {
		return 0, 0, fmt.Errorf("spatial: no candidate regions")
	}
	if err := checkWindow(set.Len(), arrival, length); err != nil {
		return 0, 0, err
	}
	var total float64
	moves := 0
	current := ""
	for h := arrival; h < arrival+length; h++ {
		best, bestV := "", 0.0
		for i, code := range candidates {
			tr, ok := set.Get(code)
			if !ok {
				return 0, 0, fmt.Errorf("spatial: region %q not in trace set", code)
			}
			v := tr.At(h)
			if i == 0 || v < bestV || (v == bestV && code < best) {
				best, bestV = code, v
			}
		}
		if current != "" && best != current {
			total += cost.PerMove()
			moves++
		}
		current = best
		total += bestV
	}
	return total, moves, nil
}
