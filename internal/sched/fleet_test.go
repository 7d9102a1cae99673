package sched

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"carbonshift/internal/engine"
)

// allPolicies is the full policy roster the equivalence checks cover.
func allPolicies() []Policy {
	return []Policy{
		FIFO{},
		CarbonGate{Percentile: 40, Window: 48},
		ForecastGate{Percentile: 40},
		GreenestFirst{},
		SpatioTemporal{Percentile: 40, Window: 48},
	}
}

func fleetJobs(t *testing.T) []Job {
	t.Helper()
	jobs, err := GenerateJobs(WorkloadSpec{
		Jobs:              80,
		ArrivalSpan:       24 * 10,
		SlackHours:        36,
		InterruptibleFrac: 0.7,
		MigratableFrac:    0.5,
		Origins:           []string{"CLEAN", "DIRTY"},
		Seed:              7,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range jobs {
		if jobs[i].Length > 48 {
			jobs[i].Length = 48
		}
	}
	return jobs
}

// TestFleetMatchesRun drives the naive reference model tick by tick
// with all jobs submitted up front and checks the snapshot is deeply
// identical to the batch Run for every policy. Run drives a Fleet, so
// this is the Run-vs-reference differential.
func TestFleetMatchesRun(t *testing.T) {
	set := mkSet(t, 24*15)
	jobs := fleetJobs(t)
	for _, p := range allPolicies() {
		want, err := Run(set, clusters(20), jobs, p, 24*15)
		if err != nil {
			t.Fatal(err)
		}
		f, err := newRefFleet(set, clusters(20), p, 24*15)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Submit(jobs...); err != nil {
			t.Fatal(err)
		}
		for !f.Done() {
			if err := f.Step(); err != nil {
				t.Fatal(err)
			}
		}
		if got := f.Snapshot(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: fleet snapshot differs from Run result", p.Name())
		}
	}
}

// TestFleetOnlineSubmission submits each job to the naive reference
// model exactly at its arrival hour, the way the HTTP service does, and
// still matches the batch Run (a Fleet with every job submitted up
// front) — a differential across both the implementation and the
// submission pattern.
func TestFleetOnlineSubmission(t *testing.T) {
	set := mkSet(t, 24*15)
	jobs := fleetJobs(t)
	for _, p := range allPolicies() {
		want, err := Run(set, clusters(20), jobs, p, 24*15)
		if err != nil {
			t.Fatal(err)
		}
		f, err := newRefFleet(set, clusters(20), p, 24*15)
		if err != nil {
			t.Fatal(err)
		}
		next := 0
		for !f.Done() {
			for next < len(jobs) && jobs[next].Arrival == f.Hour() {
				if err := f.Submit(jobs[next]); err != nil {
					t.Fatal(err)
				}
				next++
			}
			if err := f.Step(); err != nil {
				t.Fatal(err)
			}
		}
		if next != len(jobs) {
			t.Fatalf("%s: only %d/%d jobs submitted", p.Name(), next, len(jobs))
		}
		if got := f.Snapshot(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: online submission snapshot differs from Run result", p.Name())
		}
	}
}

// TestRunConcurrentPolicies is cmd/carbonsched's shape: the five
// policies run concurrently on engine workers over one shared trace set,
// each Run owning its own lock-bearing fleet, and must equal the same
// five run one after another. Under -race it certifies that concurrent
// Runs share nothing mutable.
func TestRunConcurrentPolicies(t *testing.T) {
	set := mkSet(t, 24*15)
	jobs := fleetJobs(t)
	policies := allPolicies()
	run := func(_ context.Context, i int) (Result, error) {
		return Run(set, clusters(20), jobs, policies[i], 24*15)
	}
	want, err := engine.Map(context.Background(), 1, len(policies), run)
	if err != nil {
		t.Fatal(err)
	}
	got, err := engine.Map(context.Background(), len(policies), len(policies), run)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range policies {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("%s: concurrent Run differs from sequential Run", p.Name())
		}
	}
}

func TestFleetSubmitValidation(t *testing.T) {
	set := mkSet(t, 50)
	f, err := NewFleet(set, clusters(1), FIFO{}, 50)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Submit(Job{ID: 1, Origin: "CLEAN", Arrival: 0, Length: 0}); err == nil {
		t.Error("zero-length job accepted")
	}
	if err := f.Submit(Job{ID: 1, Origin: "NOPE", Arrival: 0, Length: 1}); err == nil {
		t.Error("orphan origin accepted")
	}
	// A batch with an internal duplicate must be rejected atomically.
	err = f.Submit(
		Job{ID: 1, Origin: "CLEAN", Arrival: 0, Length: 1},
		Job{ID: 1, Origin: "CLEAN", Arrival: 0, Length: 1},
	)
	if err == nil {
		t.Error("intra-batch duplicate accepted")
	}
	if f.Jobs() != 0 {
		t.Fatalf("failed batch admitted %d jobs", f.Jobs())
	}
	if err := f.Submit(Job{ID: 1, Origin: "CLEAN", Arrival: 0, Length: 1}); err != nil {
		t.Fatal(err)
	}
	if err := f.Submit(Job{ID: 1, Origin: "CLEAN", Arrival: 0, Length: 1}); err == nil {
		t.Error("cross-batch duplicate accepted")
	}
	// A duplicate arriving later would wait among the future arrivals.
	if err := f.Submit(Job{ID: 1, Origin: "CLEAN", Arrival: 5, Length: 1}); err == nil {
		t.Error("cross-batch duplicate of a future arrival accepted")
	}
	if err := f.Step(); err != nil {
		t.Fatal(err)
	}
	if err := f.Submit(Job{ID: 2, Origin: "CLEAN", Arrival: 0, Length: 1}); err == nil ||
		!strings.Contains(err.Error(), "before current hour") {
		t.Errorf("past-arrival submission: err = %v", err)
	}
}

func TestFleetStepPastHorizon(t *testing.T) {
	set := mkSet(t, 50)
	f, err := NewFleet(set, clusters(1), FIFO{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	for !f.Done() {
		if err := f.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Step(); err == nil {
		t.Error("step past horizon accepted")
	}
}

func TestFleetLookupAndStats(t *testing.T) {
	set := mkSet(t, 100)
	f, err := NewFleet(set, clusters(1), FIFO{}, 100)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := f.Lookup(9); ok {
		t.Error("lookup of unknown job succeeded")
	}
	if err := f.Submit(
		Job{ID: 1, Origin: "DIRTY", Arrival: 0, Length: 2, Slack: 10},
		Job{ID: 2, Origin: "DIRTY", Arrival: 0, Length: 3, Slack: 10},
	); err != nil {
		t.Fatal(err)
	}
	// One slot: FIFO runs job 1 first, job 2 queues.
	if err := f.Step(); err != nil {
		t.Fatal(err)
	}
	j1, ok := f.Lookup(1)
	if !ok || !j1.Running || j1.Remaining != 1 || j1.Region != "DIRTY" {
		t.Fatalf("job 1 after first hour: %+v", j1)
	}
	j2, _ := f.Lookup(2)
	if j2.Running || j2.WaitHours != 1 {
		t.Fatalf("job 2 after first hour: %+v", j2)
	}
	st := f.Stats()
	if st.Submitted != 2 || st.Running != 1 || st.Queued != 1 || st.Completed != 0 {
		t.Fatalf("stats after first hour: %+v", st)
	}
	if st.SlotHoursUsed != 1 || st.SlotHoursTotal != 2 {
		t.Fatalf("slot hours: %+v", st)
	}
	for i := 0; i < 4; i++ {
		if err := f.Step(); err != nil {
			t.Fatal(err)
		}
	}
	j1, _ = f.Lookup(1)
	if !j1.Completed || j1.CompletedAt != 2 || j1.MissedDeadline {
		t.Fatalf("job 1 final: %+v", j1)
	}
	st = f.Stats()
	if st.Completed != 2 || st.Unresolved != 0 || st.Missed != 0 {
		t.Fatalf("final stats: %+v", st)
	}
	if st.TotalEmissions != f.Snapshot().TotalEmissions {
		t.Fatal("stats emissions disagree with snapshot")
	}
}

// TestFleetOnPlace checks the fleet's placement hook on a 1-slot world,
// where contention makes every phase of Step place work: each By value
// occurs, every Placed carries its region's and its origin's intensity
// for its hour, the log is hour-ordered, and it holds one entry per
// slot-hour used.
func TestFleetOnPlace(t *testing.T) {
	set := mkSet(t, 24*15)
	jobs := fleetJobs(t)
	f, err := NewFleet(set, clusters(1), GreenestFirst{}, 24*15)
	if err != nil {
		t.Fatal(err)
	}
	var log []Placed
	f.OnPlace = func(p Placed) { log = append(log, p) }
	if err := f.Submit(jobs...); err != nil {
		t.Fatal(err)
	}
	driveFleet(t, f)

	regions := f.Regions()
	byCount := map[By]int{}
	for i, p := range log {
		if i > 0 && p.Hour < log[i-1].Hour {
			t.Fatal("placement log not ordered by hour")
		}
		byCount[p.By]++
		if want := set.MustGet(regions[p.Region]).At(p.Hour); p.CI != want {
			t.Fatalf("%+v: CI %v, want %s's %v", p, p.CI, regions[p.Region], want)
		}
		if want := set.MustGet(regions[p.Origin]).At(p.Hour); p.OriginCI != want {
			t.Fatalf("%+v: OriginCI %v, want %s's %v", p, p.OriginCI, regions[p.Origin], want)
		}
	}
	for _, by := range []By{ByContinued, ByDeadline, ByPolicy} {
		if byCount[by] == 0 {
			t.Errorf("no job-hour placed By(%d) (counts %v)", by, byCount)
		}
	}
	if len(byCount) != 3 {
		t.Errorf("By values outside the three phases: %v", byCount)
	}
	if used := f.Stats().SlotHoursUsed; float64(len(log)) != used {
		t.Fatalf("recorded %d placements, used %v slot-hours", len(log), used)
	}
}
