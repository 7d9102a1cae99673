package sched

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"carbonshift/internal/rng"
	"carbonshift/internal/trace"
)

// placement is one executed job-hour as seen by the OnPlace recorder.
type placement struct {
	hour, job int
	region    string
}

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
func checkInvariants(t *testing.T, world worldSpec, log []placement, res Result) {
	t.Helper()
	slots := make(map[string]int)
	for _, c := range world.clusters {
		slots[c.Region] = c.Slots
	}
	jobs := make(map[int]Job)
	for _, o := range res.Outcomes {
		jobs[o.ID] = o.Job
	}

	type hourRegion struct {
		hour   int
		region string
	}
	load := make(map[hourRegion]int)
	perJob := make(map[int][]placement)
	for i, p := range log {
		if i > 0 && p.hour < log[i-1].hour {
			t.Fatalf("placement log goes backwards at %d: %+v after %+v", i, p, log[i-1])
		}
		load[hourRegion{p.hour, p.region}]++
		if got, max := load[hourRegion{p.hour, p.region}], slots[p.region]; got > max {
			t.Fatalf("hour %d: region %s oversubscribed (%d > %d slots)", p.hour, p.region, got, max)
		}
		j, ok := jobs[p.job]
		if !ok {
			t.Fatalf("placement for unknown job %d", p.job)
		}
		if !j.Migratable && p.region != j.Origin {
			t.Fatalf("pinned job %d ran in %s, origin %s", j.ID, p.region, j.Origin)
		}
		perJob[p.job] = append(perJob[p.job], p)
	}

	for _, o := range res.Outcomes {
		hours := perJob[o.ID]
		if o.Completed && len(hours) != o.Length {
			t.Fatalf("completed job %d executed %d hours, length %d", o.ID, len(hours), o.Length)
		}
		if !o.Completed && len(hours) >= o.Length {
			t.Fatalf("uncompleted job %d executed %d hours, length %d", o.ID, len(hours), o.Length)
		}
		if !o.Interruptible && len(hours) > 0 {
			for i := 1; i < len(hours); i++ {
				if hours[i].hour != hours[i-1].hour+1 {
					t.Fatalf("non-interruptible job %d paused between hours %d and %d",
						o.ID, hours[i-1].hour, hours[i].hour)
				}
			}
		}
		if o.Emissions < 0 {
			t.Fatalf("job %d has negative emissions %v", o.ID, o.Emissions)
		}
		// Emissions must be monotone in completed work: on a
		// non-negative trace the cumulative sum over the executed hours
		// is non-decreasing, and the final value must equal the outcome.
		var cum, prev float64
		for _, p := range hours {
			cum += world.set.MustGet(p.region).At(p.hour)
			if cum < prev {
				t.Fatalf("job %d emissions decreased mid-run", o.ID)
			}
			prev = cum
		}
		if math.Abs(cum-o.Emissions) > 1e-9*(1+math.Abs(cum)) {
			t.Fatalf("job %d emissions %v, recomputed %v", o.ID, o.Emissions, cum)
		}
	}
}

type worldSpec struct {
	set      *trace.Set
	clusters []Cluster
}

// TestSchedulingInvariants drives randomized worlds (seeded jobs ×
// every policy × varying horizons) through both the serial Fleet and
// the ShardedFleet, asserting the invariants above on
// each and deep equality between the two.
func TestSchedulingInvariants(t *testing.T) {
	seeds := []uint64{1, 2, 3, 5, 8, 13, 21, 34}
	if testing.Short() {
		seeds = seeds[:3]
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			src := rng.New(seed)
			nRegions := 2 + src.Intn(6)
			horizon := 24 * (4 + src.Intn(8))
			set, clusters, origins := mkWideSet(t, horizon, nRegions)
			spec := WorkloadSpec{
				Jobs:              40 + src.Intn(120),
				ArrivalSpan:       horizon * 3 / 4,
				SlackHours:        src.Intn(48),
				InterruptibleFrac: src.Float64(),
				MigratableFrac:    src.Float64(),
				Origins:           origins,
				Seed:              seed * 1000,
			}
			jobs, err := GenerateJobs(spec)
			if err != nil {
				t.Fatal(err)
			}
			maxLen := 1 + src.Intn(36)
			for i := range jobs {
				if jobs[i].Length > maxLen {
					jobs[i].Length = maxLen
				}
			}
			world := worldSpec{set: set, clusters: clusters}

			for _, policy := range allPolicies() {
				policy := policy
				t.Run(policy.Name(), func(t *testing.T) {
					var serialLog []placement
					ref, err := NewFleet(set, clusters, policy, horizon)
					if err != nil {
						t.Fatal(err)
					}
					ref.OnPlace = func(h, id int, r string) {
						serialLog = append(serialLog, placement{h, id, r})
					}
					if err := ref.Submit(jobs...); err != nil {
						t.Fatal(err)
					}
					driveFleet(t, ref)
					refRes := ref.Snapshot()
					checkInvariants(t, world, serialLog, refRes)

					var fleetLog []placement
					sf, err := NewShardedFleet(set, clusters, policy, horizon, 0)
					if err != nil {
						t.Fatal(err)
					}
					sf.OnPlace = func(h, id int, r string) {
						fleetLog = append(fleetLog, placement{h, id, r})
					}
					if err := sf.Submit(jobs...); err != nil {
						t.Fatal(err)
					}
					driveFleet(t, sf)
					fleetRes := sf.Snapshot()
					checkInvariants(t, world, fleetLog, fleetRes)

					if !reflect.DeepEqual(serialLog, fleetLog) {
						t.Fatalf("placement logs diverge (%d vs %d records)",
							len(serialLog), len(fleetLog))
					}
					if !reflect.DeepEqual(refRes, fleetRes) {
						t.Fatal("results diverge")
					}
				})
			}
		})
	}
}
