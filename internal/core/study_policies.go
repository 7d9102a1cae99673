package core

import (
	"context"
	"fmt"

	"carbonshift/internal/engine"
	"carbonshift/internal/regions"
	"carbonshift/internal/sched"
	"carbonshift/internal/simgrid"
)

// The policies study's fixed world and workload: three regional
// clusters, one 60-day trace, and a stream of mostly flexible jobs.
var policyRegions = []string{"DE", "SE", "US-CA"}

const (
	policyJobs          = 400
	policySlots         = 30 // per regional cluster
	policyDays          = 60
	policySlack         = 48 // hours
	policyInterruptible = 0.8
	policyMigratable    = 0.6
)

// Policies compares the five scheduling policies on one job stream over
// finite regional clusters: the capacity-constrained counterpart of the
// per-job bounds, which §5.2.5 warns finite capacity erodes. The study
// simulates its own 60-day, three-region world from the lab's seed
// instead of reading l.Set, and runs one sched.Run per policy on the
// lab's worker pool.
func (l *Lab) Policies(ctx context.Context) (*Table, error) {
	regs := make([]regions.Region, len(policyRegions))
	clusters := make([]sched.Cluster, len(policyRegions))
	for i, code := range policyRegions {
		regs[i] = regions.MustByCode(code)
		clusters[i] = sched.Cluster{Region: code, Slots: policySlots}
	}
	horizon := policyDays * 24
	seed := l.opts.Sim.Seed
	set, err := simgrid.GenerateCached(ctx, regs, simgrid.Config{Seed: seed, Hours: horizon}, l.workers)
	if err != nil {
		return nil, err
	}
	jobs, err := sched.GenerateJobs(sched.WorkloadSpec{
		Jobs:              policyJobs,
		ArrivalSpan:       horizon - 10*24,
		SlackHours:        policySlack,
		InterruptibleFrac: policyInterruptible,
		MigratableFrac:    policyMigratable,
		Origins:           policyRegions,
		Seed:              seed,
	})
	if err != nil {
		return nil, err
	}
	policies := []sched.Policy{
		sched.FIFO{},
		sched.CarbonGate{Percentile: 35, Window: 168},
		sched.ForecastGate{Percentile: 35},
		sched.GreenestFirst{},
		sched.SpatioTemporal{Percentile: 35, Window: 168},
	}
	// Each policy simulates the same job stream on its own fleet.
	results, err := engine.Map(ctx, l.workers, len(policies), func(_ context.Context, i int) (sched.Result, error) {
		return sched.Run(set, clusters, jobs, policies[i], horizon)
	})
	if err != nil {
		return nil, err
	}

	t := &Table{
		ID: "policies",
		Title: fmt.Sprintf("Scheduling policies: %d jobs, %d regions × %d slots, %d days, slack %dh",
			policyJobs, len(policyRegions), policySlots, policyDays, policySlack),
		Columns: []string{"emissions_kg", "saving_vs_fifo_pct", "missed", "wait_h", "util_pct"},
	}
	fifo := results[0].TotalEmissions
	for _, res := range results {
		saving := 0.0
		if fifo > 0 {
			saving = 100 * (fifo - res.TotalEmissions) / fifo
		}
		t.AddRow(res.Policy, res.TotalEmissions/1000, saving, float64(res.Missed),
			res.MeanWaitHours, 100*res.Utilization())
	}
	return t, nil
}
