package sched

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"unsafe"
)

// TestJobRecLayout keeps the record honest: at most one cache line, and
// no field the garbage collector would have to follow — that is what
// puts the job store in no-scan memory.
func TestJobRecLayout(t *testing.T) {
	if size := unsafe.Sizeof(jobRec{}); size > 64 {
		t.Errorf("jobRec is %d bytes, want at most 64", size)
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
// bare fleet: the 64-byte record, its 4-byte entry in the job list, and
// its share of the id index — a 4-byte slot in tables that run between
// 7/16 and 7/8 full, so 4.6 to 9.1 bytes, 5.2 at this population (64
// tables of 16 KiB). 74 bytes when this was written; the ceiling is the
// index at its emptiest (77) plus the lists' append slack. The same
// store indexed by a map[int]uint32 measured 92, the pointer layout
// before it 220.
func TestShardedFleetResidentBytesPerJob(t *testing.T) {
	const n, ceiling = 200_000, 84
	set, cl, origins := mkWideSet(t, 48, 4)
	jobs := residentJobs(n, origins)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f, err := NewShardedFleet(set, cl, FIFO{}, 48, 0)
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

// TestSubmitAllocs pins Submit's zero-allocation claim: a 64-job batch
// is a sequence range, so beyond the amortized growth of the store (one
// block per 1024 jobs, an index table per split, the job lists) a call
// allocates nothing.
func TestSubmitAllocs(t *testing.T) {
	set, cl, origins := mkWideSet(t, 48, 4)
	f, err := NewShardedFleet(set, cl, FIFO{}, 48, 0)
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
	f, err := NewShardedFleet(set, cl, FIFO{}, 48, 0)
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

// TestShardedFleetReadersBesideSubmit runs every walk of the job store
// beside concurrent Submits that cross several block boundaries (and so
// grow the block directory under the readers), and beside batches that
// fail on their last job and are rolled back — records written above the
// readers' count, a block opened and dropped, a tenant interned and
// forgotten. Under -race it is the certificate that record blocks never
// move and that a view taken under idMu is safe to walk; without it, it
// still checks that a reader never sees a record before it is complete,
// or one that was rolled back.
func TestShardedFleetReadersBesideSubmit(t *testing.T) {
	const submitters, perSubmitter, batch = 2, 2*recBlock + 100, 7
	set, cl, origins := mkWideSet(t, 48, 4)
	f, err := NewShardedFleet(set, cl, FIFO{}, 48, 0)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var writers, readers sync.WaitGroup
	for w := 0; w < submitters; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			jobs := residentJobs(perSubmitter, origins)
			for i := range jobs {
				jobs[i].ID += w * perSubmitter
			}
			for i := 0; i < len(jobs); i += batch {
				if err := f.Submit(jobs[i:min(i+batch, len(jobs))]...); err != nil {
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
			if err := f.Submit(doomed...); err == nil {
				t.Error("a batch ending in a duplicate id was accepted")
				return
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
			if info, ok := f.Lookup(id); ok && (info.ID != id || info.Length < 1 || info.Origin == "") {
				return fmt.Errorf("job %d read back as %+v", id, info)
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
			if o.Length < 1 || o.Origin == "" || o.Tenant == "rolled-back" {
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
		for i := range img.jobs {
			if err := img.jobs[i].Validate(); err != nil {
				return err
			}
		}
		return nil
	})
	read("TenantStats", func() error {
		total := 0
		for _, ts := range f.TenantStats() {
			total += ts.Submitted
		}
		if total > submitters*perSubmitter {
			return fmt.Errorf("%d jobs counted, only %d exist", total, submitters*perSubmitter)
		}
		return nil
	})
	writers.Wait()
	close(done)
	readers.Wait()
	if got := len(f.Snapshot().Outcomes); got != submitters*perSubmitter {
		t.Fatalf("%d outcomes, want %d", got, submitters*perSubmitter)
	}
}

// TestShardedFleetCapacityBounds: the record's 16-bit region indices and
// 32-bit sequence numbers are refused at the door, never wrapped.
func TestShardedFleetCapacityBounds(t *testing.T) {
	set, cl, _ := mkWideSet(t, 48, 2)
	if _, err := NewShardedFleet(set, make([]Cluster, math.MaxInt16+1), FIFO{}, 48, 0); err == nil ||
		!strings.Contains(err.Error(), "clusters, at most") {
		t.Errorf("a fleet of more than MaxInt16 clusters: err = %v", err)
	}
	f, err := NewShardedFleet(set, cl, FIFO{}, 48, 0)
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
