package gateway

import (
	"context"
	"fmt"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"carbonshift/internal/sched"
	"carbonshift/internal/schedd"
	"carbonshift/internal/tenant"
	"carbonshift/internal/trace"
)

type placeRec struct {
	hour, job int
	region    string
}

// TestPartitionedEquivalence is the tentpole correctness proof: a
// partitioned topology — N independent schedd deployments, each owning
// one region group, behind the routing gateway — must schedule exactly
// like N independent fleets, one per region group's sub-world,
// each fed its group's jobs in arrival order. For every policy and for
// N in {1, 2, 4}:
//
//   - each partition's placements equal its group's reference fleet's,
//     record for record;
//   - the union of the partitions' job outcomes equals the union of the
//     reference fleets' outcomes.
//
// That each partition's journal recovers its state is the fault
// harness's invariant 4, per partition (internal/schedd's
// TestPartitionedKillAnyOne).
//
// The tenants cases run the same proof with tenancy on: every partition
// and every reference fleet owns its own fair queue, under enough slot
// pressure that fair order decides placements. The test proves that
// HTTP admission through the gateway's routing and splitting preserves
// the per-group schedule end to end.
func TestPartitionedEquivalence(t *testing.T) {
	const horizon = 24 * 10
	set, cl, origins := mkWorld(t, horizon, 8, 12)
	jobs := partitionJobs(t, origins)

	policies := []sched.Policy{
		sched.FIFO{},
		sched.CarbonGate{Percentile: 40, Window: 48},
		sched.ForecastGate{Percentile: 40},
		sched.GreenestFirst{},
		sched.SpatioTemporal{Percentile: 40, Window: 48},
	}
	for _, policy := range policies {
		for _, n := range []int{1, 2, 4} {
			// The binary batch protocol rides the sweep on the hardest
			// policy: the codec is the only difference between the
			// variants, so one policy pins it without tripling the run.
			protos := []bool{false}
			if _, ok := policy.(sched.SpatioTemporal); ok && n > 1 {
				protos = []bool{false, true}
			}
			for _, binary := range protos {
				proto := "json"
				if binary {
					proto = "binary"
				}
				t.Run(fmt.Sprintf("%s/partitions=%d/%s", policy.Name(), n, proto), func(t *testing.T) {
					testPartitionedEquivalence(t, set, cl, origins, jobs, policy, horizon, n, binary, nil)
				})
			}
		}
	}

	// Tenancy: six slots a region (half the plain world's), three tenants
	// of three classes taking the jobs round-robin.
	tenants, err := tenant.NewConfig([]tenant.Spec{
		{Name: "alpha", Class: tenant.Interactive},
		{Name: "beta", Class: tenant.Batch},
		{Name: "gamma", Class: tenant.Scavenger},
	})
	if err != nil {
		t.Fatal(err)
	}
	names := tenants.Names()
	tjobs := slices.Clone(jobs)
	for i := range tjobs {
		tjobs[i].Tenant = names[i%len(names)]
	}
	tset, tcl, _ := mkWorld(t, horizon, 8, 6)
	for _, policy := range []sched.Policy{sched.FIFO{}, sched.SpatioTemporal{Percentile: 40, Window: 48}} {
		for _, n := range []int{2, 4} {
			binary, proto := n == 4, "json" // the tenant field on both wires
			if binary {
				proto = "binary"
			}
			t.Run(fmt.Sprintf("tenants/%s/partitions=%d/%s", policy.Name(), n, proto), func(t *testing.T) {
				// Fair order must decide something here, or the case
				// proves nothing tenancy-specific.
				groups := groupSplit(origins, n)
				fair, _ := referenceRun(t, tset, tcl, groups, tjobs, policy, horizon, tenants)
				plain, _ := referenceRun(t, tset, tcl, groups, tjobs, policy, horizon, nil)
				if reflect.DeepEqual(fair, plain) {
					t.Fatal("no placement changes with tenancy off: the slot pressure is too low for fair order to matter")
				}
				testPartitionedEquivalence(t, tset, tcl, origins, tjobs, policy, horizon, n, binary, tenants)
			})
		}
	}
}

// partitionJobs is the equivalence workload: 280 jobs over eight days,
// lengths capped at 30 hours.
func partitionJobs(t *testing.T, origins []string) []sched.Job {
	jobs, err := sched.GenerateJobs(sched.WorkloadSpec{
		Jobs:              280,
		ArrivalSpan:       24 * 8,
		SlackHours:        24,
		InterruptibleFrac: 0.6,
		MigratableFrac:    0.5,
		Origins:           origins,
		Seed:              17,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range jobs {
		if jobs[i].Length > 30 {
			jobs[i].Length = 30
		}
	}
	return jobs
}

// referenceRun runs one independent fleet per region group over
// that group's sub-world, fed only the group's jobs in the same relative
// order, with its own fair queue when tenants is non-nil. It returns
// each group's placement log and the union of the fleets' outcomes.
func referenceRun(t *testing.T, set *trace.Set, cl []sched.Cluster, groups [][]string,
	jobs []sched.Job, policy sched.Policy, horizon int, tenants *tenant.Config) ([][]placeRec, map[int]sched.Outcome) {
	logs := make([][]placeRec, len(groups))
	outcomes := map[int]sched.Outcome{}
	for gi, g := range groups {
		sub, subcl := subWorld(t, set, cl, g)
		ref, err := sched.NewFleet(sub, subcl, policy, horizon)
		if err != nil {
			t.Fatal(err)
		}
		if tenants != nil {
			ref.SetFairQueue(tenant.NewFairQueue(tenants))
		}
		regions := ref.Regions()
		ref.OnPlace = func(p sched.Placed) {
			logs[gi] = append(logs[gi], placeRec{p.Hour, p.JobID, regions[p.Region]})
		}
		var subJobs []sched.Job
		for _, j := range jobs {
			if slices.Contains(g, j.Origin) {
				subJobs = append(subJobs, j)
			}
		}
		if err := ref.Submit(subJobs...); err != nil {
			t.Fatal(err)
		}
		for !ref.Done() {
			if err := ref.Step(); err != nil {
				t.Fatal(err)
			}
		}
		for _, o := range ref.Snapshot().Outcomes {
			outcomes[o.ID] = o
		}
	}
	return logs, outcomes
}

func testPartitionedEquivalence(t *testing.T, set *trace.Set, cl []sched.Cluster, origins []string,
	jobs []sched.Job, policy sched.Policy, horizon, n int, binary bool, tenants *tenant.Config) {
	groups := groupSplit(origins, n)

	// Reference: one independent fleet per region group.
	refLogs, refOutcomes := referenceRun(t, set, cl, groups, jobs, policy, horizon, tenants)

	// The partitioned topology: one durable schedd per region group on a
	// shared hand-cranked clock, the gateway in front.
	clock := &hourClock{}
	liveLogs := make([][]placeRec, n)
	srvs := make([]*schedd.Server, n)
	var urls [][]string
	for i := 0; i < n; i++ {
		sub, subcl := subWorld(t, set, cl, groups[i])
		cfg := schedd.Config{
			Policy:      policy,
			Horizon:     horizon,
			Partitions:  n,
			PartitionID: i,
			IDBase:      i * 1_000_000,
			DataDir:     filepath.Join(t.TempDir(), fmt.Sprintf("p%d", i)),
			Tenants:     tenants,
		}
		i := i
		srv, err := schedd.New(sub, subcl, cfg,
			schedd.WithClock(clock.now),
			schedd.WithRecorder(func(hour, jobID int, region string) {
				liveLogs[i] = append(liveLogs[i], placeRec{hour, jobID, region})
			}))
		if err != nil {
			t.Fatal(err)
		}
		srvs[i] = srv
		t.Cleanup(func() { srv.Close() })
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		urls = append(urls, []string{ts.URL})
	}
	_, gwts := startGateway(t, urls)
	client, err := schedd.NewClient(gwts.URL, gwts.Client())
	if err != nil {
		t.Fatal(err)
	}
	submit := client.Submit
	if binary {
		submit = client.SubmitBatch
	}

	// Drive the replay: jobs are submitted through the gateway with
	// their original ids exactly when the clock reaches their arrival
	// hour — mixed batches exercise the split path, single-origin hours
	// the raw proxy.
	ctx := context.Background()
	next := 0
	for hour := 0; hour < horizon; hour++ {
		clock.hour.Store(int64(hour))
		var batch []schedd.JobRequest
		for next < len(jobs) && jobs[next].Arrival == hour {
			j := jobs[next]
			id := j.ID
			batch = append(batch, schedd.JobRequest{
				ID:            &id,
				Origin:        j.Origin,
				Tenant:        j.Tenant,
				LengthHours:   j.Length,
				SlackHours:    j.Slack,
				Interruptible: j.Interruptible,
				Migratable:    j.Migratable,
			})
			next++
		}
		if len(batch) == 0 {
			continue
		}
		ack, err := submit(ctx, batch...)
		if err != nil {
			t.Fatal(err)
		}
		if ack.ArrivalHour != hour {
			t.Fatalf("arrival hour %d, want %d", ack.ArrivalHour, hour)
		}
		if len(ack.IDs) != len(batch) {
			t.Fatalf("acked %d ids for a %d-job batch", len(ack.IDs), len(batch))
		}
	}
	if next != len(jobs) {
		t.Fatalf("submitted %d/%d jobs", next, len(jobs))
	}
	// Crank to the end; the gateway's stats scatter drives every
	// partition through its remaining hours.
	clock.hour.Store(int64(horizon))
	fleetStats, err := client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}

	// Placements: each partition must have produced exactly its group's
	// slice of the reference log.
	for i := 0; i < n; i++ {
		if !reflect.DeepEqual(liveLogs[i], refLogs[i]) {
			t.Fatalf("partition %d placements differ from reference group %d: %d vs %d records",
				i, i, len(liveLogs[i]), len(refLogs[i]))
		}
	}

	// Outcomes: the union across partitions equals the reference fleet's.
	gotOutcomes := map[int]sched.Outcome{}
	for _, srv := range srvs {
		for _, o := range srv.Snapshot().Outcomes {
			if _, dup := gotOutcomes[o.ID]; dup {
				t.Fatalf("job %d resolved by two partitions", o.ID)
			}
			gotOutcomes[o.ID] = o
		}
	}
	if !reflect.DeepEqual(gotOutcomes, refOutcomes) {
		t.Fatalf("outcome union differs: %d jobs vs reference %d", len(gotOutcomes), len(refOutcomes))
	}
	if fleetStats.Submitted != len(jobs) || fleetStats.Unresolved != 0 {
		t.Fatalf("fleet stats: submitted %d unresolved %d, want %d / 0",
			fleetStats.Submitted, fleetStats.Unresolved, len(jobs))
	}
}
