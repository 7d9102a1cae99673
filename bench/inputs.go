package main

import (
	"context"
	"fmt"

	"carbonshift/internal/regions"
	"carbonshift/internal/rng"
	"carbonshift/internal/sched"
	"carbonshift/internal/schedd"
	"carbonshift/internal/simgrid"
	"carbonshift/internal/tenant"
	"carbonshift/internal/trace"
)

const (
	// worldSeed fixes the carbon traces: the world is the deployment's
	// configuration, -seed varies only what clients send.
	worldSeed = 1
	// partitions is the topology's write-scaling factor: two region
	// groups, each a primary with a hot standby.
	partitions = 2
	// idBase spaces the partitions' id ranges; explicit ids are drawn
	// inside the owner's range so the gateway's id-range lookup routing
	// hits first time, as it does for auto-assigned ids in production.
	idBase = 100_000_000
)

// world is the scheduling world of one online spec: the traces, the
// clusters, and the round-robin split into partition region groups.
type world struct {
	set      *trace.Set
	clusters []sched.Cluster
	regions  []string
	groups   [][]string
	groupOf  map[string]int
}

func catalog(n int) []regions.Region {
	all := regions.All()
	if n > 0 && n < len(all) {
		all = all[:n]
	}
	return all
}

func buildWorld(ctx context.Context, spec onlineSpec) (*world, error) {
	regs := catalog(spec.Regions)
	set, err := simgrid.GenerateCached(ctx, regs, simgrid.Config{Seed: worldSeed, Hours: spec.Horizon}, 0)
	if err != nil {
		return nil, fmt.Errorf("world: %w", err)
	}
	w := &world{set: set, groups: make([][]string, partitions), groupOf: make(map[string]int, len(regs))}
	for i, r := range regs {
		w.regions = append(w.regions, r.Code)
		w.clusters = append(w.clusters, sched.Cluster{Region: r.Code, Slots: spec.Slots})
		w.groups[i%partitions] = append(w.groups[i%partitions], r.Code)
		w.groupOf[r.Code] = i % partitions
	}
	return w, nil
}

// subWorld restricts the world to one partition's region group.
func (w *world) subWorld(g int) (*trace.Set, []sched.Cluster, error) {
	sub, err := w.set.Subset(w.groups[g])
	if err != nil {
		return nil, nil, err
	}
	var cl []sched.Cluster
	for _, c := range w.clusters {
		if w.groupOf[c.Region] == g {
			cl = append(cl, c)
		}
	}
	return sub, cl, nil
}

// The tenant world of the tenancy-on workloads: one interactive, two
// batch, and a scavenger catch-all that "adhoc" jobs fall into. The
// limits exist so the gate does its bookkeeping; none can trigger.
var (
	tenantSpecs = []tenant.Spec{
		{Name: "web", Class: tenant.Interactive, QuotaJobsPerHour: 1 << 30},
		{Name: "etl", Class: tenant.Batch, Weight: 2, QuotaJobsPerHour: 1 << 30},
		{Name: "ml", Class: tenant.Batch, RatePerSec: 1e9, Burst: 1 << 30},
		{Name: tenant.CatchAll, Class: tenant.Scavenger},
	}
	tenantNames  = []string{"web", "etl", "ml", "adhoc"}
	tenantShares = []float64{0.50, 0.25, 0.15, 0.10}
)

func tenantConfig() *tenant.Config {
	cfg, err := tenant.NewConfig(append([]tenant.Spec(nil), tenantSpecs...))
	if err != nil {
		panic(err)
	}
	return cfg
}

// tenantSequence draws n tenant names by share.
func tenantSequence(seed uint64, n int) []string {
	src := rng.New(seed ^ 0x7e4a47)
	out := make([]string, n)
	for i := range out {
		out[i] = tenantNames[src.Pick(tenantShares)]
	}
	return out
}

// buildStream draws the spec's job stream of n jobs, sorted by arrival.
// Ids are rewritten into the owning partition's id range, in stream
// order within each partition.
func buildStream(spec onlineSpec, w *world, seed uint64, n int) ([]sched.Job, error) {
	jobs, err := sched.GenerateJobs(sched.WorkloadSpec{
		Jobs:              n,
		ArrivalSpan:       spec.ArrivalHours,
		Dist:              spec.Lengths,
		SlackHours:        spec.Slack,
		InterruptibleFrac: spec.Interrupt,
		MigratableFrac:    spec.Migrate,
		Origins:           w.regions,
		Seed:              seed,
	})
	if err != nil {
		return nil, err
	}
	var names []string
	if spec.Tenants {
		names = tenantSequence(seed, n)
	}
	next := make([]int, partitions)
	for i := range jobs {
		j := &jobs[i]
		j.Length = min(j.Length, spec.MaxLength)
		if names != nil {
			j.Tenant = names[i]
		}
		g := w.groupOf[j.Origin]
		j.ID = g*idBase + next[g]
		next[g]++
	}
	return jobs, nil
}

// buildRequests pre-builds every submit request of the replay, grouped
// by replay hour, so the timed phase measures the program and not the
// generator. One request carries up to batch jobs of one hour.
func buildRequests(jobs []sched.Job, hours, batch int) [][][]schedd.JobRequest {
	ids := make([]int, len(jobs))
	flat := make([]schedd.JobRequest, len(jobs))
	for i, j := range jobs {
		ids[i] = j.ID
		flat[i] = schedd.JobRequest{
			ID: &ids[i], Origin: j.Origin, Tenant: j.Tenant,
			LengthHours: j.Length, SlackHours: j.Slack,
			Interruptible: j.Interruptible, Migratable: j.Migratable,
		}
	}
	out := make([][][]schedd.JobRequest, hours)
	for lo := 0; lo < len(jobs); {
		h := jobs[lo].Arrival
		hi := lo
		for hi < len(jobs) && jobs[hi].Arrival == h {
			hi++
		}
		for ; lo < hi; lo += batch {
			out[h] = append(out[h], flat[lo:min(lo+batch, hi)])
		}
		lo = hi
	}
	return out
}
