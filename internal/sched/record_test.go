package sched

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"carbonshift/internal/rng"
	"carbonshift/internal/tenant"
)

// TestJobRecLayout keeps the record honest: 48 bytes, and no field the
// garbage collector would have to follow — that is what puts the job
// store in no-scan memory. A running job's progress lives in its 8-byte
// active entry instead.
func TestJobRecLayout(t *testing.T) {
	if size := unsafe.Sizeof(jobRec{}); size > 48 {
		t.Errorf("jobRec is %d bytes, want at most 48", size)
	}
	if size := unsafe.Sizeof(activeJob{}); size > 8 {
		t.Errorf("activeJob is %d bytes, want at most 8", size)
	}
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				walk(path+"."+typ.Field(i).Name, typ.Field(i).Type)
			}
		case reflect.Array:
			walk(path+"[]", typ.Elem())
		case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
			reflect.Float32, reflect.Float64:
		default:
			t.Errorf("%s is a %s: the record must hold no pointer", path, typ.Kind())
		}
	}
	walk("jobRec", reflect.TypeOf(jobRec{}))
	walk("activeJob", reflect.TypeOf(activeJob{}))
}

// residentJobs is a stream of n already-arrived jobs over four tenants.
func residentJobs(n int, origins []string) []Job {
	tenants := []string{"", "web", "batch", "spot"}
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = Job{
			ID: i, Origin: origins[i%len(origins)], Tenant: tenants[i%len(tenants)],
			Length: 1 + i%4, Slack: 48, Interruptible: i%2 == 0, Migratable: i%3 == 0,
		}
	}
	return jobs
}

// TestShardedFleetResidentBytesPerJob pins what a resident job costs a
// bare fleet: the 48-byte record and its 8-byte entry in the active
// list. Its ids run in order, so every block is its own index from its
// first record and no id index table is ever made. Every job here has
// arrived and none has run, so each has an active entry, and no block
// is frozen. 57.3 bytes when this was written; the ceiling, 10 % over
// it, leaves room for the active list's append slack (up to a quarter
// of its 8 bytes). While every hot id kept a 4-byte slot in tables 7/16
// to 7/8 full (5.2 bytes at this population) it measured 62.8, with a
// 12-byte entry 68.4, the 64-byte record with a 4-byte list entry 74,
// the same store indexed by a map[int]uint32 92, the pointer layout
// before it 220.
func TestShardedFleetResidentBytesPerJob(t *testing.T) {
	const n, ceiling = 200_000, 63
	set, cl, origins := mkWideSet(t, 48, 4)
	jobs := residentJobs(n, origins)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f, err := NewFleet(set, cl, FIFO{}, 48)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i += 64 {
		if err := f.Submit(jobs[i:min(i+64, n)]...); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	perJob := float64(after.HeapInuse-before.HeapInuse) / n
	t.Logf("%.1f bytes of heap in use per resident job", perJob)
	if perJob > ceiling {
		t.Errorf("%.1f bytes per resident job, want at most %d", perJob, ceiling)
	}
	runtime.KeepAlive(f)
	runtime.KeepAlive(jobs)
}

// TestFleetRetainedBytesPerJob pins what a job costs once it is done: a
// fleet keeps every job it has seen, but a done job has left the active
// list, and once every job of its 1024-record block is done the block is
// frozen. What stays is the packed record — each field at the width it
// spans in its block, 11 bits here with the id, region and last run
// packed against their neighbours at width 0, plus the block's 1024-bit
// bitmap of emissions the trace gives back, which here is every job's
// (FIFO runs each one at home without a break), so no emissions are
// stored: 1.5 KiB a block, 1.5 bytes a job — its share of the block
// directory (about 0.3), and the active list's and Step's scratch at
// their peak — a few thousand entries here, arriving 1000 an hour over
// 200 hours and all run at once. Ids 0..n-1 pack at width 0, so each
// block, hot or frozen, is its own index and the fleet makes no index
// table. Each hour's jobs are submitted as they arrive, as the service
// takes them. 3.0 bytes when this was written, 2.4 once hot blocks
// indexed themselves too; 8.0 while every id kept its slot (5.2 bytes
// at this population), 18.3 while every frozen record stored its
// emissions' 8 bytes and 24 bits of fields, the hot 48-byte record 54,
// the 64-byte record that kept progress and wait 70.
// TestFleetRetainedBytesScattered is the same fleet with ids no block
// can index itself by.
func TestFleetRetainedBytesPerJob(t *testing.T) {
	const n, ceiling = 200_000, 4
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	retainedBytes(t, ids, ceiling)
}

// TestFleetRetainedBytesScattered pins a done job's cost when clients
// choose its id: a random permutation of n ids 1000 apart, so a block's
// ids spread over most of 2·10⁸. No block is its own index, so every id
// keeps its slot in tables 7/16 to 7/8 full, and the id column packs at
// 28 bits a record: 12.0 bytes when this was written, as before dense
// blocks left the tables. The ceiling keeps scattered ids at that cost.
func TestFleetRetainedBytesScattered(t *testing.T) {
	const n, ceiling = 200_000, 13
	retainedBytes(t, scatteredIDs(n), ceiling)
}

// scatteredIDs is a random permutation of n ids 1000 apart.
func scatteredIDs(n int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = 1000 * i
	}
	shuffle(ids, rng.New(8))
	return ids
}

// shuffle permutes s in place (Fisher–Yates).
func shuffle(s []int, src *rng.Source) {
	for i := len(s) - 1; i > 0; i-- {
		j := src.Intn(i + 1)
		s[i], s[j] = s[j], s[i]
	}
}

// retainedBytes runs len(ids) jobs with these ids to the end of the
// horizon (doneFleet) and fails if the fleet then holds more than
// ceiling bytes of heap a job.
func retainedBytes(t *testing.T, ids []int, ceiling float64) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f := doneFleet(t, ids)
	runtime.GC()
	runtime.ReadMemStats(&after)
	perJob := float64(after.HeapInuse-before.HeapInuse) / float64(len(ids))
	t.Logf("%.1f bytes of heap in use per retained done job", perJob)
	if perJob > ceiling {
		t.Errorf("%.1f bytes per retained done job, want at most %g", perJob, ceiling)
	}
	runtime.KeepAlive(f)
}

// doneFleet returns a FIFO fleet that has run len(ids) jobs with these
// ids, arriving and submitted 1000 an hour, to the end of its horizon:
// every job done, every full block frozen.
func doneFleet(tb testing.TB, ids []int) *Fleet {
	const perHour = 1000
	n := len(ids)
	set, cl, origins := mkWideSet(tb, n/perHour+8, 4)
	for i := range cl {
		cl[i].Slots = perHour
	}
	jobs := residentJobs(n, origins)
	for i := range jobs {
		jobs[i].ID, jobs[i].Arrival = ids[i], i/perHour
	}
	f, err := NewFleet(set, cl, FIFO{}, n/perHour+8)
	if err != nil {
		tb.Fatal(err)
	}
	for h := 0; h*perHour < n; h++ {
		if err := f.Submit(jobs[h*perHour : min(n, (h+1)*perHour)]...); err != nil {
			tb.Fatal(err)
		}
		if err := f.Step(); err != nil {
			tb.Fatal(err)
		}
	}
	driveFleet(tb, f)
	if st := f.Stats(); st.Completed != n {
		tb.Fatalf("%d of %d jobs done", st.Completed, n)
	}
	return f
}

// BenchmarkFleetLookup looks up done jobs in a fleet of 200 000, in a
// random order: ids 0..n-1, whose frozen blocks are their own index at
// width 0; ascending ids with one gap in eight, as a partition sees a
// shared id sequence, whose blocks are their own index at width 7 or 8;
// and the scattered ids of TestFleetRetainedBytesScattered, which stay
// in the hash tables.
func BenchmarkFleetLookup(b *testing.B) {
	const n = 200_000
	dense, gaps := make([]int, n), make([]int, n)
	src := rng.New(3)
	for i := range dense {
		dense[i] = i
		gaps[i] = i + 1
		if i > 0 {
			gaps[i] = gaps[i-1] + 1 + src.Intn(8)/7
		}
	}
	for _, c := range []struct {
		name string
		ids  []int
	}{
		{"dense", dense},
		{"gaps", gaps},
		{"scattered", scatteredIDs(n)},
	} {
		b.Run(c.name, func(b *testing.B) {
			f := doneFleet(b, c.ids)
			queries := slices.Clone(c.ids)
			shuffle(queries, rng.New(9))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok := f.Lookup(queries[i%n]); !ok {
					b.Fatalf("job %d not found", queries[i%n])
				}
			}
		})
	}
}

// BenchmarkFleetSubmit submits 64-job batches, as the binary wire
// carries them, to a fleet that is replaced, outside the timer, once it
// holds 200 000 jobs: ids 0..n-1, whose blocks index themselves and
// whose ids never enter the hash tables, and the scattered ids of
// TestFleetRetainedBytesScattered, which all do. B/op is the store's
// amortized growth.
func BenchmarkFleetSubmit(b *testing.B) {
	const n, batch = 200_000, 64
	set, cl, origins := mkWideSet(b, 48, 4)
	dense := make([]int, n)
	for i := range dense {
		dense[i] = i
	}
	for _, c := range []struct {
		name string
		ids  []int
	}{
		{"dense", dense},
		{"scattered", scatteredIDs(n)},
	} {
		b.Run(c.name, func(b *testing.B) {
			jobs := residentJobs(n, origins)
			for i := range jobs {
				jobs[i].ID = c.ids[i]
			}
			var f *Fleet
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				k := i % (n / batch) * batch
				if k == 0 {
					b.StopTimer()
					var err error
					if f, err = NewFleet(set, cl, FIFO{}, 48); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
				}
				if err := f.Submit(jobs[k : k+batch]...); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/job")
		})
	}
}

// idlePolicy places nothing: every job waits until deadline forcing
// runs it.
type idlePolicy struct{}

func (idlePolicy) Name() string           { return "idle" }
func (idlePolicy) Plan(*Tick) []Placement { return nil }

// TestStepAllocs pins the Step's zero-allocation claim: the candidate
// pool (filtered in place into the eligible list), the Tick and the fair
// queue's order are kept between Steps, so an hour that admits no
// arrivals allocates nothing — with
// jobs waiting, continuing, forced by their deadlines and completing,
// and, with tenancy on, ordered by the fair queue and charged to it. The
// one hour that does allocate without arrivals is one that freezes a
// record block: one packed block per 1024 jobs, the same cost as Submit
// opening the block (TestFreezeAllocs). No block fills up with done jobs
// in the hours measured here.
func TestStepAllocs(t *testing.T) {
	const horizon = 400
	set, cl, origins := mkWideSet(t, horizon, 4)
	for _, tenancy := range []bool{false, true} {
		t.Run(fmt.Sprintf("tenancy=%v", tenancy), func(t *testing.T) {
			f, err := NewFleet(set, cl, idlePolicy{}, horizon)
			if err != nil {
				t.Fatal(err)
			}
			if tenancy {
				f.SetFairQueue(tenant.NewFairQueue(goldenTenantConfig(t)))
			}
			jobs := residentJobs(2000, origins)
			for i := range jobs {
				jobs[i].Slack = 20 + i%200
			}
			if err := f.Submit(jobs...); err != nil {
				t.Fatal(err)
			}
			step := func() {
				if err := f.Step(); err != nil {
					t.Fatal(err)
				}
			}
			for f.Hour() < 30 {
				step()
			}
			done := f.Stats().Completed
			if allocs := testing.AllocsPerRun(50, step); allocs != 0 {
				t.Errorf("Step allocates %.2f times per hour, want 0", allocs)
			}
			if st := f.Stats(); st.Completed == done || st.Unresolved == 0 {
				t.Fatalf("the measured hours completed %d jobs and left %d: not a steady state", st.Completed-done, st.Unresolved)
			}
		})
	}
}

// TestFreezeAllocs pins what freezing a record block costs Step: the
// hour that completes the last job of a full block allocates once, for
// the packed block, and the hour after it nothing. The block after it,
// done too but not full, stays hot: Submit may still append to it.
func TestFreezeAllocs(t *testing.T) {
	const n = recBlock + 10
	set, cl, origins := mkWideSet(t, 48, 4)
	for i := range cl {
		cl[i].Slots = n
	}
	f, err := NewFleet(set, cl, idlePolicy{}, 48)
	if err != nil {
		t.Fatal(err)
	}
	jobs := residentJobs(n, origins)
	for i := range jobs {
		jobs[i].Length, jobs[i].Slack = 2, 0 // forced at hours 0 and 1
	}
	if err := f.Submit(jobs...); err != nil {
		t.Fatal(err)
	}
	stepAllocs := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := f.Step(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	stepAllocs() // hour 0 sizes Step's scratch
	if allocs := stepAllocs(); allocs != 1 {
		t.Errorf("the hour that froze a block allocated %d times, want 1", allocs)
	}
	if st := f.Stats(); st.Completed != n {
		t.Fatalf("%d of %d jobs done after hour 1", st.Completed, n)
	}
	if got := frozenBlocks(f); got != 1 || f.blocks[1].hot == nil {
		t.Fatalf("%d blocks frozen, want only the full one", got)
	}
	if allocs := stepAllocs(); allocs != 0 {
		t.Errorf("the hour after the freeze allocated %d times, want 0", allocs)
	}
}

// TestSubmitAllocs pins Submit's zero-allocation claim: a 64-job batch
// is a sequence range, so beyond the amortized growth of the store (one
// block per 1024 jobs, an index table per split, the job lists) a call
// allocates nothing.
func TestSubmitAllocs(t *testing.T) {
	set, cl, origins := mkWideSet(t, 48, 4)
	f, err := NewFleet(set, cl, FIFO{}, 48)
	if err != nil {
		t.Fatal(err)
	}
	batch := residentJobs(64, origins)
	next := 0
	submit := func() {
		for i := range batch {
			batch[i].ID = next
			next++
		}
		if err := f.Submit(batch...); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 500; i++ {
		submit()
	}
	if allocs := testing.AllocsPerRun(200, submit); allocs != 0 {
		t.Errorf("Submit of 64 jobs allocates %.0f times per call, want 0", allocs)
	}
}

// TestSnapshotAllocs pins Snapshot's one allocation: Outcomes is sized
// from the job count up front, and Origin/Tenant strings come from the
// region and tenant tables. Snapshot ends every offline Run, where
// growing Outcomes by append would copy about twice the final slice.
func TestSnapshotAllocs(t *testing.T) {
	set, cl, origins := mkWideSet(t, 48, 4)
	f, err := NewFleet(set, cl, FIFO{}, 48)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Submit(residentJobs(5000, origins)...); err != nil {
		t.Fatal(err)
	}
	driveFleet(t, f)
	var res Result
	if allocs := testing.AllocsPerRun(20, func() { res = f.Snapshot() }); allocs > 1 {
		t.Errorf("Snapshot of 5000 jobs allocates %.0f times, want 1", allocs)
	}
	if len(res.Outcomes) != 5000 {
		t.Fatalf("%d outcomes, want 5000", len(res.Outcomes))
	}
}

// TestFleetReadersBesideSubmit runs every walk of the job store beside
// concurrent Submits that cross several block boundaries (and so grow the
// block directory under the readers), beside batches that fail on their
// last job and are rolled back — records written above the readers'
// count, a block opened and dropped, a tenant interned and forgotten —
// and beside a Step that runs whenever new jobs have been admitted, which
// completes them within hours and so freezes each block once it is full.
// Under -race it is the certificate that hot blocks never move, that a
// view taken under idMu is safe to walk, and that a block is swapped for
// its frozen form only where no reader can see it change: Has, which
// holds idMu and not the world lock, is the reader that catches a
// directory swap made outside idMu. Without it, it still checks that a
// reader never sees a record before it is complete, one that was rolled
// back, or one a freeze garbled. With one submitter the ids run in order,
// so every block is its own index, and a rolled-back batch spills the
// tail block into the tables and takes the spill back, under the
// readers; two submitters' ids interleave, so their blocks spill and stay
// in the tables.
func TestFleetReadersBesideSubmit(t *testing.T) {
	for _, submitters := range []int{1, 2} {
		t.Run(fmt.Sprintf("submitters=%d", submitters), func(t *testing.T) {
			readersBesideSubmit(t, submitters)
		})
	}
}

func readersBesideSubmit(t *testing.T, submitters int) {
	const perSubmitter, batch, horizon = 2*recBlock + 100, 7, 2048
	set, cl, origins := mkWideSet(t, horizon, 4)
	for i := range cl {
		cl[i].Slots = 64
	}
	f, err := NewFleet(set, cl, FIFO{}, horizon)
	if err != nil {
		t.Fatal(err)
	}
	written, done := make(chan struct{}), make(chan struct{})
	var writers, stepper, readers sync.WaitGroup
	for w := 0; w < submitters; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			jobs := residentJobs(perSubmitter, origins)
			for i := range jobs {
				jobs[i].ID += w * perSubmitter
			}
			for i := 0; i < len(jobs); i += batch {
				if _, err := f.SubmitNow(nil, jobs[i:min(i+batch, len(jobs))]...); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	writers.Add(1)
	go func() {
		defer writers.Done()
		doomed := residentJobs(recBlock/2, origins)
		for i := range doomed {
			doomed[i].ID += submitters * perSubmitter
			doomed[i].Tenant = "rolled-back"
		}
		doomed[len(doomed)-1].ID = doomed[0].ID
		for i := 0; i < 40; i++ {
			if _, err := f.SubmitNow(nil, doomed...); err == nil || err == ErrHorizonExhausted {
				t.Errorf("a batch ending in a duplicate id: err = %v", err)
				return
			}
		}
	}()
	// The stepper takes at most one hour per admitted batch, so the
	// horizon outlasts the writers; once they are done it steps until
	// every job is, which freezes every full block while the readers run.
	stepper.Add(1)
	go func() {
		defer stepper.Done()
		step := func() bool {
			if err := f.Step(); err != nil {
				t.Error(err)
				return false
			}
			return true
		}
		for seen := 0; ; {
			select {
			case <-written:
				for f.Outstanding() > 0 {
					if !step() {
						return
					}
				}
				return
			default:
			}
			if n := f.Jobs(); n > seen {
				seen = n
				if !step() {
					return
				}
			} else {
				runtime.Gosched()
			}
		}
	}()
	read := func(name string, walk func() error) {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for stop := false; !stop; {
				select {
				case <-done:
					stop = true // one last walk over the full store
				default:
				}
				if err := walk(); err != nil {
					t.Errorf("%s: %v", name, err)
					return
				}
			}
		}()
	}
	read("Lookup", func() error {
		for id := 0; id < submitters*perSubmitter; id += 97 {
			info, ok := f.Lookup(id)
			if !ok {
				continue
			}
			if info.ID != id || info.Length < 1 || info.Origin == "" || info.Remaining < 0 || info.Remaining > info.Length ||
				info.Completed != (info.Remaining == 0) || info.Completed && info.CompletedAt <= info.Arrival || info.WaitHours < 0 {
				return fmt.Errorf("job %d read back as %+v", id, info)
			}
			if !f.Has(id) {
				return fmt.Errorf("job %d can be looked up but Has says it was never submitted", id)
			}
		}
		return nil
	})
	read("Has", func() error {
		for id := 0; id < submitters*perSubmitter+recBlock/2; id += 89 {
			if f.Has(id) && id >= submitters*perSubmitter {
				return fmt.Errorf("job %d of a rolled-back batch is registered", id)
			}
		}
		return nil
	})
	read("Snapshot", func() error {
		for _, o := range f.Snapshot().Outcomes {
			if o.Length < 1 || o.Origin == "" || o.Tenant == "rolled-back" || o.Completed && o.CompletedAt <= o.Arrival {
				return fmt.Errorf("incomplete outcome %+v", o)
			}
		}
		return nil
	})
	read("Marshal", func() error {
		data, err := f.Marshal()
		if err != nil {
			return err
		}
		img, err := decodeImage(data)
		if err != nil {
			return err
		}
		return img.checkJobs()
	})
	read("TenantStats", func() error {
		total := 0
		for _, ts := range f.TenantStats() {
			total += ts.Submitted
			if ts.Completed+ts.Unresolved != ts.Submitted {
				return fmt.Errorf("%+v: completed and unresolved do not add up", ts)
			}
		}
		if total > submitters*perSubmitter {
			return fmt.Errorf("%d jobs counted, only %d exist", total, submitters*perSubmitter)
		}
		return nil
	})
	writers.Wait()
	close(written)
	stepper.Wait()
	close(done)
	readers.Wait()
	res := f.Snapshot()
	if len(res.Outcomes) != submitters*perSubmitter || res.Completed != len(res.Outcomes) {
		t.Fatalf("%d outcomes, %d completed, want %d of each", len(res.Outcomes), res.Completed, submitters*perSubmitter)
	}
	if got, want := frozenBlocks(f), submitters*perSubmitter/recBlock; got != want {
		t.Fatalf("%d blocks frozen, want every full block: %d", got, want)
	}
	if submitters == 1 && len(f.ids.dense) != frozenBlocks(f) {
		t.Fatalf("%d of %d frozen blocks of ids in order are dense", len(f.ids.dense), frozenBlocks(f))
	}
}

// TestFleetCapacityBounds: the record's 16-bit region indices and
// 32-bit sequence numbers are refused at the door, never wrapped.
func TestFleetCapacityBounds(t *testing.T) {
	set, cl, _ := mkWideSet(t, 48, 2)
	if _, err := NewFleet(set, make([]Cluster, math.MaxInt16+1), FIFO{}, 48); err == nil ||
		!strings.Contains(err.Error(), "clusters, at most") {
		t.Errorf("a fleet of more than MaxInt16 clusters: err = %v", err)
	}
	f, err := NewFleet(set, cl, FIFO{}, 48)
	if err != nil {
		t.Fatal(err)
	}
	f.submitted.Store(math.MaxUint32 - 1) // stand in for four billion submits
	if err := f.Submit(Job{ID: 1, Origin: "R00", Length: 1}, Job{ID: 2, Origin: "R00", Length: 1}); err == nil {
		t.Error("job number MaxUint32+1 was accepted")
	}
	if _, ok := f.Lookup(1); ok {
		t.Error("a refused batch left a job behind")
	}
}
