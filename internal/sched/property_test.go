package sched

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"carbonshift/internal/rng"
)

// checkInvariants asserts the structural scheduling invariants over a
// finished fleet's placement log and result:
//
//   - no region ever runs more jobs in an hour than it has slots;
//   - pinned (non-migratable) jobs only ever run in their origin;
//   - a started non-interruptible job runs every hour until done;
//   - per-job emissions are non-negative, equal the sum of the carbon
//     intensity over the job's executed hours (monotone in completed
//     work on non-negative traces), and completed jobs executed
//     exactly Length hours.
func checkInvariants(t *testing.T, c diffCase, log []Placed, res Result) {
	t.Helper()
	// Placed names regions by index in the sorted cluster list.
	regions := slices.SortedFunc(slices.Values(c.clusters), func(a, b Cluster) int { return strings.Compare(a.Region, b.Region) })
	type run struct {
		Job
		hours, last int
		emissions   float64
	}
	runs := make(map[int]*run, len(res.Outcomes))
	for _, o := range res.Outcomes {
		runs[o.ID] = &run{Job: o.Job}
	}
	load := make([]int, len(regions)) // of the hour of the last placement
	for i, p := range log {
		if i > 0 && p.Hour != log[i-1].Hour {
			if p.Hour < log[i-1].Hour {
				t.Fatalf("placement log goes backwards at %d: %+v after %+v", i, p, log[i-1])
			}
			clear(load)
		}
		region := regions[p.Region]
		if load[p.Region]++; load[p.Region] > region.Slots {
			t.Fatalf("hour %d: region %s oversubscribed (%d > %d slots)", p.Hour, region.Region, load[p.Region], region.Slots)
		}
		j, ok := runs[p.JobID]
		if !ok {
			t.Fatalf("placement for unknown job %d", p.JobID)
		}
		if !j.Migratable && region.Region != j.Origin {
			t.Fatalf("pinned job %d ran in %s, origin %s", j.ID, region.Region, j.Origin)
		}
		if !j.Interruptible && j.hours > 0 && p.Hour != j.last+1 {
			t.Fatalf("non-interruptible job %d paused between hours %d and %d", j.ID, j.last, p.Hour)
		}
		// Emissions must be monotone in completed work: on a
		// non-negative trace the cumulative sum over the executed hours
		// is non-decreasing, and the final value must equal the outcome.
		ci := c.set.MustGet(region.Region).At(p.Hour)
		if ci < 0 {
			t.Fatalf("job %d emissions decreased mid-run", j.ID)
		}
		j.hours, j.last, j.emissions = j.hours+1, p.Hour, j.emissions+ci
	}

	for _, o := range res.Outcomes {
		j := runs[o.ID]
		if o.Completed && j.hours != o.Length {
			t.Fatalf("completed job %d executed %d hours, length %d", o.ID, j.hours, o.Length)
		}
		if !o.Completed && j.hours >= o.Length {
			t.Fatalf("uncompleted job %d executed %d hours, length %d", o.ID, j.hours, o.Length)
		}
		if o.Emissions < 0 {
			t.Fatalf("job %d has negative emissions %v", o.ID, o.Emissions)
		}
		if math.Abs(j.emissions-o.Emissions) > 1e-9*(1+math.Abs(j.emissions)) {
			t.Fatalf("job %d emissions %v, recomputed %v", o.ID, o.Emissions, j.emissions)
		}
	}
}

// TestSchedulingInvariants drives randomized worlds (seeded jobs ×
// every policy × varying horizons, one to three slots per region)
// through the lockstep driver: the naive reference model and the Fleet
// must agree on every read every hour, and both placement logs must
// keep the invariants above.
func TestSchedulingInvariants(t *testing.T) {
	seeds := []uint64{1, 2, 3, 5, 8, 13, 21, 34}
	if testing.Short() {
		seeds = seeds[:3]
	}
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			src := rng.New(seed)
			regions, horizon := 2+src.Intn(6), 24*(4+src.Intn(8))
			c := wideCase(t, horizon, regions, WorkloadSpec{
				Jobs: 40 + src.Intn(120), ArrivalSpan: horizon * 3 / 4, SlackHours: src.Intn(48),
				InterruptibleFrac: src.Float64(), MigratableFrac: src.Float64(), Seed: seed * 1000,
			}, 1+src.Intn(36))
			// Scarce slots make the deadline phase spill and queue.
			for i := range c.clusters {
				c.clusters[i].Slots = 1 + src.Intn(3)
			}
			c.run(t)
		})
	}
}
