package sched

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"carbonshift/internal/trace"
)

// mkWideSet builds an nRegions-region world with staggered diurnal
// cycles and distinct baselines, so spatial policies genuinely migrate
// between regions.
func mkWideSet(t testing.TB, hours, nRegions int) (*trace.Set, []Cluster, []string) {
	t.Helper()
	start := time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)
	var traces []*trace.Trace
	var cl []Cluster
	var origins []string
	for r := 0; r < nRegions; r++ {
		ci := make([]float64, hours)
		base := 50 + 90*float64(r)
		for h := 0; h < hours; h++ {
			ci[h] = base + 200*(1+math.Sin(2*math.Pi*float64(h+3*r)/24))
		}
		code := fmt.Sprintf("R%02d", r)
		traces = append(traces, trace.New(code, start, ci))
		cl = append(cl, Cluster{Region: code, Slots: 12})
		origins = append(origins, code)
	}
	set, err := trace.NewSet(traces)
	if err != nil {
		t.Fatal(err)
	}
	return set, cl, origins
}

func driveFleet(t testing.TB, f interface {
	Done() bool
	Step() error
}) {
	t.Helper()
	for !f.Done() {
		if err := f.Step(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestShardedFleetEquivalence is the core determinism contract of the
// fleet: for every policy, placements (every executed job-hour, in
// order) and the aggregate Result must be byte-identical to the serial
// reference Fleet. The shards subtests pass NewShardedFleet's
// deprecated final argument, which must stay a no-op until it is
// removed.
func TestShardedFleetEquivalence(t *testing.T) {
	const horizon = 24 * 12
	set, cl, origins := mkWideSet(t, horizon, 8)
	jobs, err := GenerateJobs(WorkloadSpec{
		Jobs:              300,
		ArrivalSpan:       24 * 9,
		SlackHours:        30,
		InterruptibleFrac: 0.6,
		MigratableFrac:    0.5,
		Origins:           origins,
		Seed:              11,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range jobs {
		if jobs[i].Length > 36 {
			jobs[i].Length = 36
		}
	}

	type placeRec struct {
		hour, job int
		region    string
	}
	for _, policy := range allPolicies() {
		var refLog []placeRec
		ref, err := NewFleet(set, cl, policy, horizon)
		if err != nil {
			t.Fatal(err)
		}
		ref.OnPlace = func(hour, jobID int, region string) {
			refLog = append(refLog, placeRec{hour, jobID, region})
		}
		if err := ref.Submit(jobs...); err != nil {
			t.Fatal(err)
		}
		driveFleet(t, ref)
		want := ref.Snapshot()

		for _, shards := range []int{1, 4, 16} {
			t.Run(fmt.Sprintf("%s/shards=%d", policy.Name(), shards), func(t *testing.T) {
				var log []placeRec
				sf, err := NewShardedFleet(set, cl, policy, horizon, shards)
				if err != nil {
					t.Fatal(err)
				}
				sf.OnPlace = func(hour, jobID int, region string) {
					log = append(log, placeRec{hour, jobID, region})
				}
				if err := sf.Submit(jobs...); err != nil {
					t.Fatal(err)
				}
				driveFleet(t, sf)
				if !reflect.DeepEqual(log, refLog) {
					t.Fatalf("placement log differs: %d records vs %d serial", len(log), len(refLog))
				}
				if got := sf.Snapshot(); !reflect.DeepEqual(got, want) {
					t.Fatalf("fleet result differs from serial reference:\ngot:  %+v\nwant: %+v",
						got.TotalEmissions, want.TotalEmissions)
				}
			})
		}
	}
}

// TestShardedFleetOnlineSubmission mirrors TestFleetOnlineSubmission:
// jobs submitted exactly at their arrival hour (the schedd path) must
// still match the up-front batch run of the serial Fleet.
func TestShardedFleetOnlineSubmission(t *testing.T) {
	const horizon = 24 * 12
	set, cl, origins := mkWideSet(t, horizon, 6)
	jobs, err := GenerateJobs(WorkloadSpec{
		Jobs: 150, ArrivalSpan: 24 * 9, SlackHours: 24,
		InterruptibleFrac: 0.5, MigratableFrac: 0.7,
		Origins: origins, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	want, err := Run(set, cl, jobs, SpatioTemporal{Percentile: 40, Window: 48}, horizon)
	if err != nil {
		t.Fatal(err)
	}
	sf, err := NewShardedFleet(set, cl, SpatioTemporal{Percentile: 40, Window: 48}, horizon, 0)
	if err != nil {
		t.Fatal(err)
	}
	next := 0
	for !sf.Done() {
		for next < len(jobs) && jobs[next].Arrival == sf.Hour() {
			if err := sf.Submit(jobs[next]); err != nil {
				t.Fatal(err)
			}
			next++
		}
		if err := sf.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if next != len(jobs) {
		t.Fatalf("only %d/%d jobs submitted", next, len(jobs))
	}
	if got := sf.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Fatal("online sharded snapshot differs from serial Run")
	}
}

// TestShardedFleetLookupAndStatsParity steps both fleets in lockstep
// and checks Lookup views and the counting fields of Stats agree at
// every hour — the incremental counters must never drift from the
// serial full-store walk.
func TestShardedFleetLookupAndStatsParity(t *testing.T) {
	const horizon = 24 * 10
	set, cl, origins := mkWideSet(t, horizon, 5)
	jobs, err := GenerateJobs(WorkloadSpec{
		Jobs: 120, ArrivalSpan: 24 * 8, SlackHours: 6,
		InterruptibleFrac: 0.5, MigratableFrac: 0.5,
		Origins: origins, Seed: 21,
	})
	if err != nil {
		t.Fatal(err)
	}
	policy := CarbonGate{Percentile: 30, Window: 48}
	ref, err := NewFleet(set, cl, policy, horizon)
	if err != nil {
		t.Fatal(err)
	}
	sf, err := NewShardedFleet(set, cl, policy, horizon, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Submit(jobs...); err != nil {
		t.Fatal(err)
	}
	if err := sf.Submit(jobs...); err != nil {
		t.Fatal(err)
	}
	for !ref.Done() {
		if err := ref.Step(); err != nil {
			t.Fatal(err)
		}
		if err := sf.Step(); err != nil {
			t.Fatal(err)
		}
		a, b := ref.Stats(), sf.Stats()
		// TotalEmissions is accumulated in a different order (documented);
		// compare it with tolerance and everything else exactly.
		if math.Abs(a.TotalEmissions-b.TotalEmissions) > 1e-6*(1+math.Abs(a.TotalEmissions)) {
			t.Fatalf("hour %d: emissions %v vs %v", a.Hour, a.TotalEmissions, b.TotalEmissions)
		}
		a.TotalEmissions, b.TotalEmissions = 0, 0
		if a != b {
			t.Fatalf("hour %d: stats diverge:\nserial:  %+v\nsharded: %+v", a.Hour, a, b)
		}
		for _, j := range jobs {
			ja, oka := ref.Lookup(j.ID)
			jb, okb := sf.Lookup(j.ID)
			if oka != okb || ja != jb {
				t.Fatalf("hour %d: lookup(%d) diverges:\nserial:  %+v\nsharded: %+v",
					a.Hour, j.ID, ja, jb)
			}
		}
	}
}

func TestShardedFleetSubmitValidation(t *testing.T) {
	set, cl, _ := mkWideSet(t, 50, 2)
	f, err := NewShardedFleet(set, cl, FIFO{}, 50, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Submit(Job{ID: 1, Origin: "R00", Arrival: 0, Length: 0}); err == nil {
		t.Error("zero-length job accepted")
	}
	if err := f.Submit(Job{ID: 1, Origin: "NOPE", Arrival: 0, Length: 1}); err == nil {
		t.Error("orphan origin accepted")
	}
	err = f.Submit(
		Job{ID: 1, Origin: "R00", Arrival: 0, Length: 1},
		Job{ID: 1, Origin: "R01", Arrival: 0, Length: 1},
	)
	if err == nil {
		t.Error("intra-batch duplicate accepted")
	}
	if f.Jobs() != 0 {
		t.Fatalf("failed batch admitted %d jobs", f.Jobs())
	}
	if err := f.Submit(Job{ID: 1, Origin: "R00", Arrival: 0, Length: 1}); err != nil {
		t.Fatal(err)
	}
	if err := f.Submit(Job{ID: 1, Origin: "R00", Arrival: 5, Length: 1}); err == nil {
		t.Error("cross-batch duplicate accepted")
	}
	if err := f.Step(); err != nil {
		t.Fatal(err)
	}
	if err := f.Submit(Job{ID: 2, Origin: "R00", Arrival: 0, Length: 1}); err == nil ||
		!strings.Contains(err.Error(), "before current hour") {
		t.Errorf("past-arrival submission: err = %v", err)
	}
}

// TestJobHourBounds is the regression test for the deadline overflow:
// Validate used to accept any non-negative Slack, so Slack: MaxInt
// wrapped Deadline() negative — the job was force-run at once and Lookup
// reported it missed while Stats().Missed stayed 0. Both fleets must
// refuse an hour past math.MaxInt32 and admit the largest legal one.
func TestJobHourBounds(t *testing.T) {
	set, cl, _ := mkWideSet(t, 48, 2)
	serial, err := NewFleet(set, cl, FIFO{}, 48)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := NewShardedFleet(set, cl, FIFO{}, 48, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range []Job{
		{ID: 1, Origin: "R00", Length: 1, Slack: math.MaxInt},
		{ID: 1, Origin: "R00", Length: 1, Slack: math.MaxInt32},
		{ID: 1, Origin: "R00", Length: math.MaxInt32 + 1},
		{ID: 1, Origin: "R00", Length: 1, Arrival: math.MaxInt32 + 1},
		{ID: 1, Origin: "R00", Length: 1 << 30, Slack: 1 << 30, Arrival: 1},
	} {
		if err := j.Validate(); err == nil || !strings.Contains(err.Error(), "deadline past") {
			t.Errorf("Validate(%+v) = %v", j, err)
		}
		if err := serial.Submit(j); err == nil {
			t.Errorf("serial fleet admitted %+v", j)
		}
		if err := sharded.Submit(j); err == nil {
			t.Errorf("fleet admitted %+v", j)
		}
	}
	if serial.Jobs() != 0 || sharded.Jobs() != 0 {
		t.Fatalf("refused jobs were admitted: serial %d, sharded %d", serial.Jobs(), sharded.Jobs())
	}

	far := Job{ID: 1, Origin: "R00", Length: 2, Slack: math.MaxInt32 - 2}
	if err := serial.Submit(far); err != nil {
		t.Fatal(err)
	}
	if err := sharded.Submit(far); err != nil {
		t.Fatal(err)
	}
	if err := serial.Step(); err != nil {
		t.Fatal(err)
	}
	if err := sharded.Step(); err != nil {
		t.Fatal(err)
	}
	a, _ := serial.Lookup(1)
	b, _ := sharded.Lookup(1)
	if a != b || b.Job != far || b.MissedDeadline {
		t.Fatalf("lookup after one step:\nserial:  %+v\nsharded: %+v", a, b)
	}
	if serial.Stats().Missed != 0 || sharded.Stats().Missed != 0 {
		t.Fatalf("missed: serial %d, sharded %d", serial.Stats().Missed, sharded.Stats().Missed)
	}
}

func TestShardedFleetSubmitNow(t *testing.T) {
	set, cl, _ := mkWideSet(t, 48, 2)
	f, err := NewShardedFleet(set, cl, FIFO{}, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Step(); err != nil {
		t.Fatal(err)
	}
	// The job asks for arrival 0, but SubmitNow stamps the current hour.
	arrival, err := f.SubmitNow(Job{ID: 7, Origin: "R01", Arrival: 0, Length: 1})
	if err != nil {
		t.Fatal(err)
	}
	if arrival != 1 {
		t.Fatalf("arrival = %d, want 1", arrival)
	}
	info, ok := f.Lookup(7)
	if !ok || info.Arrival != 1 {
		t.Fatalf("lookup = %+v, %v", info, ok)
	}
	driveFleet(t, f)
	if _, err := f.SubmitNow(Job{ID: 8, Origin: "R00", Length: 1}); err != ErrHorizonExhausted {
		t.Fatalf("past-horizon SubmitNow: err = %v", err)
	}
}

// TestShardedFleetConcurrentSubmit hammers Submit/Lookup/Stats from
// many goroutines between steps; run under -race this is the data-race
// certificate for the id-registry locking, and the final snapshot
// proves no job was lost or double-admitted — nor, by the completion
// count, left out of the job lists.
func TestShardedFleetConcurrentSubmit(t *testing.T) {
	const horizon = 24 * 10
	set, cl, origins := mkWideSet(t, horizon, 4)
	f, err := NewShardedFleet(set, cl, GreenestFirst{}, horizon, 0)
	if err != nil {
		t.Fatal(err)
	}
	const (
		submitters = 8
		perWorker  = 50
	)
	var wg sync.WaitGroup
	errs := make(chan error, submitters)
	for w := 0; w < submitters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				id := w*perWorker + i
				job := Job{
					ID: id, Origin: origins[id%len(origins)], Length: 1 + id%4,
					Slack: 48, Interruptible: true, Migratable: id%2 == 0,
				}
				if _, err := f.SubmitNow(job); err != nil {
					errs <- err
					return
				}
				if _, ok := f.Lookup(id); !ok {
					errs <- fmt.Errorf("job %d not visible after submit", id)
					return
				}
				_ = f.Stats()
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// Racing batches append under the id registry's lock, in sequence
	// order: the active list must come out strictly ascending and whole.
	if len(f.active) != submitters*perWorker {
		t.Fatalf("active list holds %d jobs, want %d", len(f.active), submitters*perWorker)
	}
	for i := 1; i < len(f.active); i++ {
		if f.active[i-1] >= f.active[i] {
			t.Fatalf("active list out of order at %d: %d then %d", i, f.active[i-1], f.active[i])
		}
	}
	driveFleet(t, f)
	res := f.Snapshot()
	if len(res.Outcomes) != submitters*perWorker {
		t.Fatalf("%d outcomes, want %d", len(res.Outcomes), submitters*perWorker)
	}
	seen := make(map[int]bool)
	for _, o := range res.Outcomes {
		if seen[o.ID] {
			t.Fatalf("job %d appears twice", o.ID)
		}
		seen[o.ID] = true
	}
	if res.Completed != submitters*perWorker {
		t.Fatalf("completed %d/%d", res.Completed, submitters*perWorker)
	}
	st := f.Stats()
	if st.Completed != res.Completed || st.Submitted != len(res.Outcomes) || st.Unresolved != 0 {
		t.Fatalf("stats inconsistent with snapshot: %+v", st)
	}
}
