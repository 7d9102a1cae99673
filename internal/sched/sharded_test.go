package sched

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"carbonshift/internal/tenant"
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
// fleet: for every policy, every read, every Placed and the final Result
// must match the naive reference model. The shards subtests build
// through the deprecated NewShardedFleet and pass its final argument,
// which must stay a no-op until both are removed.
func TestShardedFleetEquivalence(t *testing.T) {
	c := wideCase(t, 24*12, 8, WorkloadSpec{
		Jobs: 300, ArrivalSpan: 24 * 9, SlackHours: 30, InterruptibleFrac: 0.6, MigratableFrac: 0.5, Seed: 11,
	}, 36)
	for _, shards := range []int{1, 4, 16} {
		c.name = fmt.Sprintf("%%s/shards=%d", shards)
		c.build = func(set *trace.Set, cl []Cluster, p Policy, horizon int) (*Fleet, error) {
			sf, err := NewShardedFleet(set, cl, p, horizon, shards)
			if err != nil {
				return nil, err
			}
			return sf.Fleet, nil
		}
		c.run(t)
	}
}

// TestShardedFleetOnlineSubmission mirrors TestFleetOnlineSubmission on a
// wider world: jobs submitted exactly at their arrival hour (the schedd
// path) must match the reference fed the same way, and the up-front
// batch Run.
func TestShardedFleetOnlineSubmission(t *testing.T) {
	c := wideCase(t, 24*12, 6, WorkloadSpec{
		Jobs: 150, ArrivalSpan: 24 * 9, SlackHours: 24, InterruptibleFrac: 0.5, MigratableFrac: 0.7, Seed: 3,
	}, 0)
	c.name, c.policies, c.submit, c.matchRun = "", []Policy{SpatioTemporal{Percentile: 40, Window: 48}}, atArrival, true
	c.run(t)
}

// TestShardedFleetLookupAndStatsParity holds the job store's derived
// fields (wait hours, completion hour, progress read from the active
// list) and incremental counters to the reference's stored ones, for
// every policy with tenancy off and on. The stream spans four record
// blocks and is shuffled within windows, so jobs that have not arrived
// sit between active ones; blocks of done jobs freeze before the
// mid-run Marshal→Unmarshal hop (and are restored frozen) and after it.
// Every job is read every third hour and at each hour that froze a
// block, Stats every hour.
func TestShardedFleetLookupAndStatsParity(t *testing.T) {
	c := wideCase(t, 24*10, 5, WorkloadSpec{
		Jobs: 3500, ArrivalSpan: 24 * 8, SlackHours: 6, InterruptibleFrac: 0.5, MigratableFrac: 0.5, Seed: 21,
	}, 24)
	for i := range c.clusters {
		c.clusters[i].Slots = 80
	}
	for i := range c.jobs {
		c.jobs[i].Tenant = []string{"", "web", "spot", "batch"}[i%4]
	}
	c.submit, c.hop, c.every, c.freezes = shuffled, 24*5+5, 3, true
	for _, cfg := range []*tenant.Config{nil, goldenTenantConfig(t)} {
		c.name, c.tenants = fmt.Sprintf("%%s/tenancy=%v", cfg != nil), cfg
		c.run(t)
	}
}

// frozenBlocks counts the fleet's frozen record blocks.
func frozenBlocks(f *Fleet) int {
	f.idMu.Lock()
	defer f.idMu.Unlock()
	n := 0
	for _, e := range f.blocks {
		if e.hot == nil {
			n++
		}
	}
	return n
}

// TestJobHourBounds is the regression test for the deadline overflow:
// Validate used to accept any non-negative Slack, so Slack: MaxInt
// wrapped Deadline() negative — the job was force-run at once and Lookup
// reported it missed while Stats().Missed stayed 0. Both fleets must
// refuse an hour past math.MaxInt32 and admit the largest legal one.
func TestJobHourBounds(t *testing.T) {
	set, cl, _ := mkWideSet(t, 48, 2)
	serial, err := newRefFleet(set, cl, FIFO{}, 48)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := NewFleet(set, cl, FIFO{}, 48)
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
	f, err := NewFleet(set, cl, FIFO{}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Step(); err != nil {
		t.Fatal(err)
	}
	// The job asks for arrival 0, but SubmitNow stamps the current hour.
	arrival, err := f.SubmitNow(nil, Job{ID: 7, Origin: "R01", Arrival: 0, Length: 1})
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
	if _, err := f.SubmitNow(nil, Job{ID: 8, Origin: "R00", Length: 1}); err != ErrHorizonExhausted {
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
	f, err := NewFleet(set, cl, GreenestFirst{}, horizon)
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
				if _, err := f.SubmitNow(nil, job); err != nil {
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
		if f.active[i-1].seq >= f.active[i].seq {
			t.Fatalf("active list out of order at %d: %d then %d", i, f.active[i-1].seq, f.active[i].seq)
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
