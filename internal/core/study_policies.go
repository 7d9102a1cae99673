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

// policiesWorld is the study's world: its three regions over 60 days
// at the caller's seed, on the caller's worker bound.
func policiesWorld(o Options) Options {
	w := Options{Sim: simgrid.Config{Seed: o.Sim.Seed, Hours: policyDays * 24}, Workers: o.Workers}
	for _, code := range policyRegions {
		w.Regions = append(w.Regions, regions.MustByCode(code))
	}
	return w
}

// Policies compares the five scheduling policies on one job stream over
// finite regional clusters: the capacity-constrained counterpart of the
// per-job bounds, which §5.2.5 warns finite capacity erodes. It runs on
// the lab of policiesWorld and one sched.Run per policy on the lab's
// worker pool.
func (l *Lab) Policies(ctx context.Context) (*Table, error) {
	clusters := make([]sched.Cluster, len(policyRegions))
	for i, code := range policyRegions {
		clusters[i] = sched.Cluster{Region: code, Slots: policySlots}
	}
	horizon := l.Set.Len()
	jobs, err := sched.GenerateJobs(sched.WorkloadSpec{
		Jobs:              policyJobs,
		ArrivalSpan:       horizon - 10*24,
		SlackHours:        policySlack,
		InterruptibleFrac: policyInterruptible,
		MigratableFrac:    policyMigratable,
		Origins:           policyRegions,
		Seed:              l.opts.Sim.Seed,
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
	results, err := engine.Map(ctx, l.opts.Workers, len(policies), func(_ context.Context, i int) (sched.Result, error) {
		return sched.Run(l.Set, clusters, jobs, policies[i], horizon)
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
