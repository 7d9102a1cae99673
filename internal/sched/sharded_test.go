package sched

import (
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
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
// fleet: for every policy, placements (every executed job-hour, in
// order) and the aggregate Result must be byte-identical to the naive
// reference model. The shards subtests build through the deprecated
// NewShardedFleet and pass its final argument, which must stay a no-op
// until both are removed.
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
		ref, err := newRefFleet(set, cl, policy, horizon)
		if err != nil {
			t.Fatal(err)
		}
		ref.OnPlace = func(p Placed) {
			refLog = append(refLog, placeRec{p.Hour, p.JobID, ref.regions[p.Region]})
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
// still match the up-front batch Run.
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
	sf, err := NewFleet(set, cl, SpatioTemporal{Percentile: 40, Window: 48}, horizon)
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

// TestShardedFleetLookupAndStatsParity steps the fleet and the naive
// reference model in lockstep, for every policy with tenancy off and on, and
// checks that Lookup of every job — pending, active and done — the
// counting fields of Stats, and TenantStats agree, and Snapshot at the
// end: the incremental counters must never drift from the reference's
// walk, and the fields the fleet derives (wait hours, completion hour,
// progress read from the active list) must read as the reference's
// stored ones. Mid-run the fleet is marshalled and restored into a fresh
// one, so the derived fields also survive Unmarshal.
//
// The stream spans four record blocks, so the freeze is held to the same
// bar: blocks of done jobs freeze before the hop (and are restored
// frozen) and after it, and every job is compared at each hour that
// froze a block — Stats every hour, everything else every few hours
// besides.
func TestShardedFleetLookupAndStatsParity(t *testing.T) {
	const horizon, hop, every = 24 * 10, 24*5 + 5, 3
	set, cl, origins := mkWideSet(t, horizon, 5)
	for i := range cl {
		cl[i].Slots = 80
	}
	jobs, err := GenerateJobs(WorkloadSpec{
		Jobs: 3500, ArrivalSpan: 24 * 8, SlackHours: 6,
		InterruptibleFrac: 0.5, MigratableFrac: 0.5,
		Origins: origins, Seed: 21,
	})
	if err != nil {
		t.Fatal(err)
	}
	tenants := []string{"", "web", "spot", "batch"}
	for i := range jobs {
		jobs[i].Tenant = tenants[i%len(tenants)]
		jobs[i].Length = min(jobs[i].Length, 24)
	}
	// Submitted out of arrival order within windows of about ten hours of
	// arrivals, jobs that have not arrived sit between active ones in
	// sequence order, as they do online when a later request brings work
	// arriving sooner — and each block still finishes within a few days.
	shuffle := rand.New(rand.NewPCG(21, 0))
	for w := 0; w < len(jobs); w += 200 {
		window := jobs[w:min(w+200, len(jobs))]
		shuffle.Shuffle(len(window), func(i, k int) { window[i], window[k] = window[k], window[i] })
	}
	cfg := goldenTenantConfig(t)
	for _, policy := range allPolicies() {
		for _, tenancy := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/tenancy=%v", policy.Name(), tenancy), func(t *testing.T) {
				ref, err := newRefFleet(set, cl, policy, horizon)
				if err != nil {
					t.Fatal(err)
				}
				build := func() *Fleet {
					f, err := NewFleet(set, cl, policy, horizon)
					if err != nil {
						t.Fatal(err)
					}
					if tenancy {
						f.SetFairQueue(tenant.NewFairQueue(cfg))
					}
					return f
				}
				if tenancy {
					ref.SetFairQueue(tenant.NewFairQueue(cfg))
				}
				sf := build()
				if err := ref.Submit(jobs...); err != nil {
					t.Fatal(err)
				}
				if err := sf.Submit(jobs...); err != nil {
					t.Fatal(err)
				}
				compare := func(everyJob bool) {
					t.Helper()
					a, b := ref.Stats(), sf.Stats()
					// TotalEmissions is accumulated in a different order
					// (documented); compare it within rounding, 1e-9 relative,
					// and everything else exactly. The bound is tight enough
					// to catch a running total scaled by 1+1e-7.
					if math.Abs(a.TotalEmissions-b.TotalEmissions) > 1e-9*(1+math.Abs(a.TotalEmissions)) {
						t.Fatalf("hour %d: emissions %v vs %v", a.Hour, a.TotalEmissions, b.TotalEmissions)
					}
					a.TotalEmissions, b.TotalEmissions = 0, 0
					if a != b {
						t.Fatalf("hour %d: stats diverge:\nserial: %+v\nfleet:  %+v", a.Hour, a, b)
					}
					if !everyJob {
						return
					}
					for _, j := range jobs {
						ja, oka := ref.Lookup(j.ID)
						jb, okb := sf.Lookup(j.ID)
						if oka != okb || ja != jb || okb != sf.Has(j.ID) {
							t.Fatalf("hour %d: lookup(%d) diverges:\nserial: %+v\nfleet:  %+v", a.Hour, j.ID, ja, jb)
						}
					}
					if ta, tb := ref.TenantStats(), sf.TenantStats(); !reflect.DeepEqual(ta, tb) {
						t.Fatalf("hour %d: tenant stats diverge:\nserial: %+v\nfleet:  %+v", a.Hour, ta, tb)
					}
				}
				compare(true)
				frozenAtHop := -1
				for !ref.Done() {
					if ref.Hour() == hop {
						frozenAtHop = frozenBlocks(sf)
						img, err := sf.Marshal()
						if err != nil {
							t.Fatal(err)
						}
						sf = build()
						if err := sf.Unmarshal(img); err != nil {
							t.Fatal(err)
						}
						if got := frozenBlocks(sf); got != frozenAtHop {
							t.Fatalf("hour %d: %d blocks frozen before Marshal, %d after Unmarshal", hop, frozenAtHop, got)
						}
						compare(true)
					}
					if err := ref.Step(); err != nil {
						t.Fatal(err)
					}
					frozen := frozenBlocks(sf)
					if err := sf.Step(); err != nil {
						t.Fatal(err)
					}
					compare(frozenBlocks(sf) > frozen || ref.Hour()%every == 0)
				}
				if a, b := ref.Snapshot(), sf.Snapshot(); !reflect.DeepEqual(a, b) {
					t.Fatalf("final snapshot diverges:\nserial: %+v\nfleet:  %+v", a, b)
				}
				if final := frozenBlocks(sf); frozenAtHop < 1 || final < 2 || final == frozenAtHop {
					t.Fatalf("%d blocks frozen at the hop and %d at the end: the freeze went untested on one side of it", frozenAtHop, final)
				}
			})
		}
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
