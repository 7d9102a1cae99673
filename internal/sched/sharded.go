package sched

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"carbonshift/internal/tenant"
	"carbonshift/internal/trace"
)

// ErrHorizonExhausted is returned by SubmitNow once the fleet has
// stepped through its whole horizon and can no longer admit work.
var ErrHorizonExhausted = fmt.Errorf("sched: replay horizon exhausted")

// ShardedFleet is the fleet core — the one hour-stepped scheduler in
// the compiled code. Run drives it offline (every job submitted up
// front); internal/schedd serves it over HTTP against a replayed clock,
// with jobs submitted while it runs. The two paths share every line of
// scheduling logic, so the online service is placement-for-placement
// identical to the batch simulator — and to the serial reference
// scheduler the tests keep (reference_test.go,
// TestShardedFleetEquivalence).
//
// The fleet keeps one job list in submission order and steps it
// serially on the caller: every phase of Step walks that list (or the
// hour's candidate pool drawn from it) once, in submission order. (The
// name is historical; the fleet has no shards. DESIGN.md "The fleet
// core" says why Step is serial.)
//
// Two structural optimizations are invisible to results: jobs that have
// not yet arrived wait in arrival buckets instead of being rescanned
// every hour, and completed jobs are compacted out of the active list.
// A Step therefore costs O(active jobs) plus O(eligible) policy work,
// not O(all jobs).
//
// A ShardedFleet is safe for concurrent use: Step excludes everything
// else, while Submit, Lookup, Stats, and Snapshot may run concurrently
// with each other (Submits only contend on a short id-registry critical
// section).
//
// Lock hierarchy (always acquired in this order, never the reverse):
// world mu (RLock for Submit/Lookup/Stats/Snapshot, Lock for Step) →
// idMu (the job store and the job lists).
type ShardedFleet struct {
	policy  Policy
	horizon int

	regionsList []string
	regionIdx   map[string]int // region code -> index
	traces      []*trace.Trace // by region index
	slotsByIdx  []int          // by region index
	slots       map[string]int
	totalSlots  int

	// mu is the world lock: Step holds it exclusively; every other entry
	// point holds it shared.
	mu   sync.RWMutex
	hour int

	// idMu guards the job store and submitted, the number of jobs in it
	// (and the next job's sequence number). The store only grows —
	// Unmarshal, which also holds the world lock exclusively, replaces it
	// wholesale — a record is complete before idMu is released, and Step
	// is the only writer afterwards. So a reader holding the world read
	// lock may copy the block directory and tenant table headers under
	// idMu (view) and then walk every record below the count it saw
	// without further locking. The id index is different: a put can move
	// any slot of a table, so it is only read under idMu. (Step does not
	// read it: a policy names jobs by their position in the hour's
	// eligible list.)
	//
	// Submit appends each admitted job to active or pending under idMu,
	// in the same critical section that hands out its sequence number, so
	// both stay sorted by sequence without an insertion; Step and
	// Unmarshal rewrite them holding the world write lock, which excludes
	// every Submit.
	idMu sync.Mutex
	jobStore
	submitted atomic.Int64
	active    []uint32         // arrived, uncompleted jobs by sequence, ascending
	pending   map[int][]uint32 // arrival hour -> future arrivals, ascending

	// Step scratch and incrementally-maintained aggregates. All of it is
	// touched only under mu.Lock (Step) — except buckets, which Submit
	// also grows under idMu; Submit holds mu.RLock, so it can never race
	// a Step.
	free        []int    // per-region free slots this hour
	pool        []uint32 // this hour's candidates: active minus forced continuations
	completed   int
	missedDone  int     // completed past their deadline
	overdueOpen int     // unresolved jobs whose deadline has passed
	ranLast     int     // non-done jobs that ran in the most recent Step
	emissionsG  float64 // accumulated in execution order (see Stats)
	slotHours   float64
	buckets     map[int]int // deadline hour -> unresolved jobs due then

	// fq, when non-nil, is the tenant fair-dequeue engine: it reorders
	// each hour's policy-eligible list into weighted-fair (deficit round
	// robin) order and is charged one unit per executed job-hour. Its
	// pass state is part of the fleet image. Touched only in Step's
	// serial sections and under mu during Marshal/Unmarshal.
	fq *tenant.FairQueue

	// OnPlace, when non-nil, observes every executed job-hour: it is
	// called once per job that runs during a Step, after the hour's
	// placements are final, in submission order. Set it before the first
	// Step; it must not call back into the fleet.
	OnPlace func(hour, jobID int, region string)

	// OnPlaceDetail, when non-nil, additionally observes the job's
	// origin region and tenant — the hook the metrics layer uses to
	// attribute carbon (saved versus a run-at-origin counterfactual,
	// and per tenant). Fired immediately after OnPlace, in the same
	// order. It must not call back into the fleet.
	OnPlaceDetail func(hour, jobID int, region, origin, tenantName string)
}

// jobRec is everything the fleet keeps per job, in 64
// pointer-free bytes: hours and counters are 32-bit (Job.Validate bounds
// every deadline by math.MaxInt32), regions are indices into
// regionsList, the tenant is an index into the fleet's tenant table, and
// the booleans are the image's flag bits. Origin and Tenant strings are
// rebuilt from those tables where a caller needs them. Because a record
// holds no pointer, the blocks are allocated no-scan: the garbage
// collector never marks the job store, however many jobs are resident.
type jobRec struct {
	id         int
	emissions  float64
	arrival    int32
	length     int32
	slack      int32
	progress   int32
	lastRun    int32 // hour of the most recent run, -1 never
	doneAt     int32
	waitHours  int32
	migrations int32
	tenantI    uint32
	originI    int16
	regionI    int16 // current region index, -1 before the first run
	placed     int16 // per-Step scratch: region index placed this hour, -1
	flags      uint8 // flagInterruptible | flagMigratable | flagDone
}

func (r *jobRec) deadline() int       { return int(r.arrival) + int(r.length) + int(r.slack) }
func (r *jobRec) done() bool          { return r.flags&flagDone != 0 }
func (r *jobRec) interruptible() bool { return r.flags&flagInterruptible != 0 }
func (r *jobRec) migratable() bool    { return r.flags&flagMigratable != 0 }

// ranAt reports whether the job's most recent run was the hour before
// hour, i.e. it is running as of hour.
func (r *jobRec) ranAt(hour int) bool { return r.lastRun >= 0 && int(r.lastRun) == hour-1 }

// recBlocks is the job store: records in fixed-size blocks, addressed by
// submission sequence. Blocks never move once allocated, so a *jobRec
// stays valid for the fleet's lifetime and a copy of the directory
// taken under idMu stays a valid view of every job submitted before it.
// Records are never freed individually: the fleet retains every job it
// has seen, so the only reclamation point is Unmarshal or teardown.
type recBlocks []*[recBlock]jobRec

const recBlock = 1024

func (b recBlocks) at(seq uint32) *jobRec { return &b[seq/recBlock][seq%recBlock] }

// jobStore is everything the fleet keeps about the jobs it has seen:
// the records, the index from job id to record, and the table the
// records' tenant indices point into. It is one value so that Unmarshal
// can build a whole store aside and swap it in only once the image has
// proved good.
type jobStore struct {
	blocks    recBlocks
	ids       idIndex           // job id -> submission sequence
	tenants   []string          // interned Job.Tenant values; tenants[0] is ""
	tenantIdx map[string]uint32 // tenant -> index into tenants
}

// newJobStore returns an empty store. Its tenant table holds the default
// tenant, whose index 0 is also a zero record's.
func newJobStore() jobStore {
	return jobStore{
		ids:       newIDIndex(),
		tenants:   []string{""},
		tenantIdx: map[string]uint32{"": 0},
	}
}

// NewShardedFleet validates the world and returns an empty fleet at
// hour zero.
//
// The final argument is deprecated and ignored: it was the region-shard
// count of a fleet that stepped shards in parallel. Callers pass 0
// until it is removed.
func NewShardedFleet(set *trace.Set, clusters []Cluster, policy Policy, horizon, _ int) (*ShardedFleet, error) {
	if policy == nil {
		return nil, fmt.Errorf("sched: nil policy")
	}
	if horizon < 1 || horizon > set.Len() {
		return nil, fmt.Errorf("sched: horizon %d outside trace of %d hours", horizon, set.Len())
	}
	if len(clusters) == 0 {
		return nil, fmt.Errorf("sched: no clusters")
	}
	if len(clusters) > math.MaxInt16 {
		return nil, fmt.Errorf("sched: %d clusters, at most %d", len(clusters), math.MaxInt16)
	}
	f := &ShardedFleet{
		policy:    policy,
		horizon:   horizon,
		slots:     make(map[string]int, len(clusters)),
		regionIdx: make(map[string]int, len(clusters)),
		jobStore:  newJobStore(),
		pending:   make(map[int][]uint32),
		buckets:   make(map[int]int),
	}
	for _, c := range clusters {
		if c.Slots < 1 {
			return nil, fmt.Errorf("sched: cluster %s has %d slots", c.Region, c.Slots)
		}
		if _, ok := set.Get(c.Region); !ok {
			return nil, fmt.Errorf("sched: cluster region %q not in trace set", c.Region)
		}
		if _, dup := f.slots[c.Region]; dup {
			return nil, fmt.Errorf("sched: duplicate cluster %s", c.Region)
		}
		f.slots[c.Region] = c.Slots
		f.regionsList = append(f.regionsList, c.Region)
		f.totalSlots += c.Slots
	}
	sort.Strings(f.regionsList)
	f.traces = make([]*trace.Trace, len(f.regionsList))
	f.slotsByIdx = make([]int, len(f.regionsList))
	f.free = make([]int, len(f.regionsList))
	for i, r := range f.regionsList {
		f.regionIdx[r] = i
		f.traces[i] = set.MustGet(r)
		f.slotsByIdx[i] = f.slots[r]
	}
	return f, nil
}

// SetFairQueue installs the tenant fair-dequeue engine. It must be set
// before the first Step (and before Unmarshal of an image that carries
// tenancy state); changing it mid-run would silently diverge placements
// from a replayed or replicated fleet.
func (f *ShardedFleet) SetFairQueue(q *tenant.FairQueue) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.fq = q
}

// Hour returns the next hour the fleet will simulate.
func (f *ShardedFleet) Hour() int {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.hour
}

// Horizon returns the exclusive final hour.
func (f *ShardedFleet) Horizon() int { return f.horizon }

// Done reports whether the fleet has simulated its whole horizon.
func (f *ShardedFleet) Done() bool {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.hour >= f.horizon
}

// Jobs returns the number of jobs submitted so far.
func (f *ShardedFleet) Jobs() int { return int(f.submitted.Load()) }

// Outstanding returns the number of submitted jobs that have not yet
// completed, in O(1) — the backpressure signal for online admission.
func (f *ShardedFleet) Outstanding() int {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return int(f.submitted.Load()) - f.completed
}

// Regions lists the cluster regions in sorted order.
func (f *ShardedFleet) Regions() []string {
	out := make([]string, len(f.regionsList))
	copy(out, f.regionsList)
	return out
}

// Slots returns the slot count of one region's cluster (0 if unknown).
func (f *ShardedFleet) Slots(region string) int { return f.slots[region] }

// Submit adds jobs to the fleet at their own arrival hours. The call is
// atomic: on any validation error no job from the batch is admitted.
// Safe for concurrent use.
func (f *ShardedFleet) Submit(jobs ...Job) error {
	f.mu.RLock()
	defer f.mu.RUnlock()
	_, err := f.submitRLocked(jobs, false)
	return err
}

// SubmitNow stamps every job's arrival with the fleet's current hour —
// the online-service admission path, where work always arrives "now" —
// and returns the arrival hour used. It fails with ErrHorizonExhausted
// once the replay is over.
func (f *ShardedFleet) SubmitNow(jobs ...Job) (int, error) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	if f.hour >= f.horizon {
		return 0, ErrHorizonExhausted
	}
	return f.submitRLocked(jobs, true)
}

// SubmitNowChecked is SubmitNow with an admission check evaluated
// under the world read lock, where the arrival hour is frozen: check
// sees exactly the hour the batch will be stamped with, closing the
// race between a caller-side quota check and a concurrent Step moving
// the hour. A check error rejects the whole batch and is returned
// verbatim.
func (f *ShardedFleet) SubmitNowChecked(check func(hour int) error, jobs ...Job) (int, error) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	if f.hour >= f.horizon {
		return 0, ErrHorizonExhausted
	}
	if check != nil {
		if err := check(f.hour); err != nil {
			return 0, err
		}
	}
	return f.submitRLocked(jobs, true)
}

// submitRLocked validates and admits a batch. The world read lock must
// be held: it freezes f.hour and excludes Step. The batch becomes the
// sequence range [first, first+len(jobs)). Each job's record is written
// and indexed as soon as it is validated — which is what catches a
// duplicate inside the batch — above the count any reader has seen; if
// a later job fails, the store is put back exactly as it was. Either way
// the call allocates nothing per batch.
func (f *ShardedFleet) submitRLocked(jobs []Job, stampNow bool) (int, error) {
	if stampNow {
		for i := range jobs {
			jobs[i].Arrival = f.hour
		}
	}
	f.idMu.Lock()
	n := f.submitted.Load()
	if n+int64(len(jobs)) > math.MaxUint32 {
		f.idMu.Unlock()
		return 0, fmt.Errorf("sched: %d jobs submitted, at most %d", n, uint32(math.MaxUint32))
	}
	first := uint32(n)
	nblocks, ntenants := len(f.blocks), len(f.tenants)
	for i := range jobs {
		j := &jobs[i]
		if err := f.admissible(j); err != nil {
			// Undo jobs[:i]: their index slots (read through their
			// records, so before the blocks go), any block they opened,
			// any tenant name only they used.
			for k := range jobs[:i] {
				f.ids.del(f.blocks, jobs[k].ID)
			}
			f.blocks = f.blocks[:nblocks]
			for _, name := range f.tenants[ntenants:] {
				delete(f.tenantIdx, name)
			}
			f.tenants = f.tenants[:ntenants]
			f.idMu.Unlock()
			return 0, err
		}
		seq := first + uint32(i)
		f.appendRec(seq, j, f.regionIdx[j.Origin])
		f.ids.put(f.blocks, j.ID, seq)
	}
	// Past this point nothing can fail: publish the batch. Its sequence
	// numbers are the highest yet, so appending keeps both lists sorted.
	for i := range jobs {
		f.buckets[jobs[i].Deadline()]++
		seq := first + uint32(i)
		if a := jobs[i].Arrival; a <= f.hour {
			f.active = append(f.active, seq)
		} else {
			f.pending[a] = append(f.pending[a], seq)
		}
	}
	f.submitted.Add(int64(len(jobs)))
	f.idMu.Unlock()
	return f.hour, nil
}

// admissible reports why the fleet cannot take j now. idMu must be held.
func (f *ShardedFleet) admissible(j *Job) error {
	if err := j.Validate(); err != nil {
		return err
	}
	if _, ok := f.slots[j.Origin]; !ok {
		return fmt.Errorf("sched: job %d origin %q has no cluster", j.ID, j.Origin)
	}
	if _, dup := f.ids.get(f.blocks, j.ID); dup {
		return fmt.Errorf("sched: duplicate job id %d", j.ID)
	}
	if j.Arrival < f.hour {
		return fmt.Errorf("sched: job %d arrives at hour %d, before current hour %d", j.ID, j.Arrival, f.hour)
	}
	return nil
}

// appendRec writes j's not-yet-run record at seq, the next free
// sequence number, and returns it. originI is j.Origin's region index.
// The fleet's idMu must be held.
func (s *jobStore) appendRec(seq uint32, j *Job, originI int) *jobRec {
	if seq%recBlock == 0 {
		s.blocks = append(s.blocks, new([recBlock]jobRec))
	}
	r := s.blocks.at(seq)
	*r = jobRec{
		id:      j.ID,
		arrival: int32(j.Arrival),
		length:  int32(j.Length),
		slack:   int32(j.Slack),
		lastRun: -1,
		tenantI: s.internTenant(j.Tenant),
		originI: int16(originI),
		regionI: -1,
		placed:  -1,
	}
	if j.Interruptible {
		r.flags |= flagInterruptible
	}
	if j.Migratable {
		r.flags |= flagMigratable
	}
	return r
}

// internTenant returns name's index in the tenant table, adding it on
// first sight. The fleet's idMu must be held.
func (s *jobStore) internTenant(name string) uint32 {
	i, ok := s.tenantIdx[name]
	if !ok {
		// Clone: the table outlives the caller's batch, and must not pin
		// whatever buffer the name was sliced from.
		name = strings.Clone(name)
		i = uint32(len(s.tenants))
		s.tenants = append(s.tenants, name)
		s.tenantIdx[name] = i
	}
	return i
}

// view returns the job store as of now, for walks that run beside
// Submit: the block directory, the tenant table, and the number of jobs
// both cover. The world read lock must be held.
func (f *ShardedFleet) view() (recBlocks, []string, uint32) {
	f.idMu.Lock()
	defer f.idMu.Unlock()
	return f.blocks, f.tenants, uint32(f.submitted.Load())
}

// job rebuilds the submitted Job from its record.
func (f *ShardedFleet) job(r *jobRec, tenants []string) Job {
	return Job{
		ID:            r.id,
		Origin:        f.regionsList[r.originI],
		Tenant:        tenants[r.tenantI],
		Arrival:       int(r.arrival),
		Length:        int(r.length),
		Slack:         int(r.slack),
		Interruptible: r.interruptible(),
		Migratable:    r.migratable(),
	}
}

// mergeBySeq merges two sorted lists into dst (reset first).
func mergeBySeq(dst, a, b []uint32) []uint32 {
	dst = dst[:0]
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i] < b[j] {
			dst = append(dst, a[i])
			i++
		} else {
			dst = append(dst, b[j])
			j++
		}
	}
	dst = append(dst, a[i:]...)
	return append(dst, b[j:]...)
}

// Step simulates the fleet's current hour and advances to the next. It
// errors past the horizon and on a misbehaving policy (a job position or
// region index out of range, double placement, pinned migration,
// oversubscription). Its four phases run serially on the calling
// goroutine, each over the job list in submission order.
func (f *ShardedFleet) Step() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.hour >= f.horizon {
		return fmt.Errorf("sched: horizon %d exhausted", f.horizon)
	}
	hour := f.hour

	// Phase 1: inject this hour's arrivals, reset the free counts, claim
	// slots for forced continuations — a started non-interruptible job
	// occupies its current region — and collect everything else into
	// the seq-sorted candidate pool.
	if batch := f.pending[hour]; len(batch) > 0 {
		f.pool = mergeBySeq(f.pool, f.active, batch) // reuse pool as scratch
		f.active, f.pool = f.pool, f.active
		delete(f.pending, hour)
	}
	copy(f.free, f.slotsByIdx)
	pool := f.pool[:0]
	for _, seq := range f.active {
		r := f.blocks.at(seq)
		r.placed = -1
		if r.progress > 0 && !r.interruptible() {
			r.placed = r.regionI
			f.free[r.regionI]--
		} else {
			pool = append(pool, seq)
		}
	}
	f.pool = pool

	// Phase 2: deadline forcing in submission order — a job with no
	// slack left must run now, in its current/origin region or (if
	// migratable) the first region, in index order, with space.
	for _, seq := range pool {
		r := f.blocks.at(seq)
		if r.deadline()-hour > int(r.length-r.progress) {
			continue
		}
		ri := int(r.regionI)
		if ri < 0 {
			ri = int(r.originI)
		}
		if f.free[ri] <= 0 && r.migratable() {
			for j := range f.free {
				if f.free[j] > 0 {
					ri = j
					break
				}
			}
		}
		if f.free[ri] > 0 {
			r.placed = int16(ri)
			f.free[ri]--
		}
	}

	// Phase 3: the policy's placement pass over the flexible remainder —
	// one Tick over every region, its eligible jobs in submission order
	// (or fair order, with tenancy on). The policy names jobs by
	// position in the list and regions by index, so a placement resolves
	// without a lookup.
	eligible := make([]uint32, 0, len(pool))
	for _, seq := range pool {
		if f.blocks.at(seq).placed < 0 {
			eligible = append(eligible, seq)
		}
	}
	eligible = f.fairOrder(eligible)
	tick := &Tick{
		Hour:     hour,
		CI:       make([]float64, len(f.traces)),
		Free:     slices.Clone(f.free),
		Eligible: make([]JobView, len(eligible)),
		traces:   f.traces,
	}
	for ri, tr := range f.traces {
		tick.CI[ri] = tr.At(hour)
	}
	for k, seq := range eligible {
		r := f.blocks.at(seq)
		tick.Eligible[k] = JobView{
			Origin:          int(r.originI),
			Remaining:       int(r.length - r.progress),
			HoursToDeadline: r.deadline() - hour,
			Interruptible:   r.interruptible(),
			Migratable:      r.migratable(),
		}
	}
	for _, p := range f.policy.Plan(tick) {
		if p.Job < 0 || p.Job >= len(eligible) {
			return fmt.Errorf("sched: policy %s placed unknown job #%d of %d eligible", f.policy.Name(), p.Job, len(eligible))
		}
		r := f.blocks.at(eligible[p.Job])
		if r.placed >= 0 {
			return fmt.Errorf("sched: policy %s double-placed job %d", f.policy.Name(), r.id)
		}
		if p.Region < 0 || p.Region >= len(f.free) {
			return fmt.Errorf("sched: policy %s used unknown region #%d", f.policy.Name(), p.Region)
		}
		if !r.migratable() && p.Region != int(r.originI) {
			return fmt.Errorf("sched: policy %s migrated pinned job %d", f.policy.Name(), r.id)
		}
		if f.free[p.Region] <= 0 {
			return fmt.Errorf("sched: policy %s oversubscribed region %s", f.policy.Name(), f.regionsList[p.Region])
		}
		r.placed = int16(p.Region)
		f.free[p.Region]--
	}

	// Phase 4: advance the world. Placements are final, so each job that
	// runs is advanced, charged to its tenant, reported to the recorder
	// and folded into the aggregates in one pass in submission order;
	// completed jobs are compacted out of the active list.
	f.ranLast = 0
	keep := f.active[:0]
	for _, seq := range f.active {
		r := f.blocks.at(seq)
		if r.placed < 0 {
			r.waitHours++
			keep = append(keep, seq)
			continue
		}
		ri := r.placed
		if r.regionI >= 0 && r.regionI != ri {
			r.migrations++
		}
		r.regionI = ri
		r.lastRun = int32(hour)
		r.progress++
		ci := f.traces[ri].At(hour)
		r.emissions += ci
		f.slotHours++
		f.emissionsG += ci
		region, tenantName := f.regionsList[ri], f.tenants[r.tenantI]
		if f.fq != nil {
			f.fq.Charge(tenantName)
		}
		if f.OnPlace != nil {
			f.OnPlace(hour, r.id, region)
		}
		if f.OnPlaceDetail != nil {
			f.OnPlaceDetail(hour, r.id, region, f.regionsList[r.originI], tenantName)
		}
		if r.progress < r.length {
			f.ranLast++
			keep = append(keep, seq)
			continue
		}
		r.flags |= flagDone
		r.doneAt = int32(hour + 1)
		f.completed++
		if d := r.deadline(); d <= hour {
			// doneAt = hour+1 > d: a late finish. Its bucket was already
			// drained into overdueOpen when hour passed d.
			f.overdueOpen--
			f.missedDone++
		} else if f.buckets[d]--; f.buckets[d] == 0 {
			delete(f.buckets, d)
		}
	}
	f.active = keep
	if n := f.buckets[hour+1]; n > 0 {
		f.overdueOpen += n
		delete(f.buckets, hour+1)
	}
	f.hour = hour + 1
	return nil
}

// fairOrder applies the fair queue's dequeue permutation to one
// hour's eligible sequences (identity when no queue is installed).
func (f *ShardedFleet) fairOrder(eligible []uint32) []uint32 {
	if f.fq == nil || len(eligible) < 2 {
		return eligible
	}
	names := make([]string, len(eligible))
	for i, seq := range eligible {
		names[i] = f.tenants[f.blocks.at(seq).tenantI]
	}
	out := make([]uint32, len(eligible))
	for k, i := range f.fq.Order(names) {
		out[k] = eligible[i]
	}
	return out
}

// JobInfo is the live view of one submitted job.
type JobInfo struct {
	Job
	// Remaining is the run-hours still needed.
	Remaining int
	// Region is the most recent placement ("" before the first run).
	Region string
	// Running reports whether the job ran in the most recent Step.
	Running bool
	// Completed and CompletedAt mirror Outcome.
	Completed   bool
	CompletedAt int
	// MissedDeadline is true for a late completion or an uncompleted
	// job whose deadline has passed.
	MissedDeadline bool
	Emissions      float64
	WaitHours      int
	Migrations     int
}

// Lookup returns the live view of a submitted job.
func (f *ShardedFleet) Lookup(id int) (JobInfo, bool) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	f.idMu.Lock()
	seq, ok := f.ids.get(f.blocks, id)
	blocks, tenants := f.blocks, f.tenants
	f.idMu.Unlock()
	if !ok {
		return JobInfo{}, false
	}
	r := blocks.at(seq)
	info := JobInfo{
		Job:        f.job(r, tenants),
		Remaining:  int(r.length - r.progress),
		Running:    r.ranAt(f.hour),
		Completed:  r.done(),
		Emissions:  r.emissions,
		WaitHours:  int(r.waitHours),
		Migrations: int(r.migrations),
	}
	if r.regionI >= 0 {
		info.Region = f.regionsList[r.regionI]
	}
	if r.done() {
		info.CompletedAt = int(r.doneAt)
		info.MissedDeadline = int(r.doneAt) > r.deadline()
	} else {
		info.MissedDeadline = r.deadline() <= f.hour
	}
	return info, true
}

// Has reports whether a job with this id has been submitted: Lookup's
// second result without the view of the job. It waits for neither the
// world lock nor a Step — the index and the ids it reads through change
// only under idMu.
func (f *ShardedFleet) Has(id int) bool {
	f.idMu.Lock()
	defer f.idMu.Unlock()
	_, ok := f.ids.get(f.blocks, id)
	return ok
}

// FleetStats is a cheap aggregate for monitoring (internal/schedd's
// /v1/stats). Unlike Snapshot, SlotHoursTotal covers only the hours
// simulated so far, so Utilization reflects elapsed time rather than the
// full horizon. Unresolved counts every submitted-but-uncompleted job,
// including overdue ones that are still running toward a late finish.
type FleetStats struct {
	Hour, Horizon                 int
	Submitted, Completed, Missed  int
	Running, Queued, Unresolved   int
	TotalEmissions                float64
	SlotHoursUsed, SlotHoursTotal float64
}

// Utilization returns used/elapsed slot-hours.
func (s FleetStats) Utilization() float64 {
	if s.SlotHoursTotal == 0 {
		return 0
	}
	return s.SlotHoursUsed / s.SlotHoursTotal
}

// Stats summarizes the fleet's current state from incrementally
// maintained counters in constant time — no walk over the job store.
// TotalEmissions is accumulated in execution order (hour-major), so it
// can differ from Snapshot's submission-order sum by float rounding in
// the last bits; every count is exact.
func (f *ShardedFleet) Stats() FleetStats {
	f.mu.RLock()
	defer f.mu.RUnlock()
	sub := int(f.submitted.Load())
	st := FleetStats{
		Hour:           f.hour,
		Horizon:        f.horizon,
		Submitted:      sub,
		Completed:      f.completed,
		Missed:         f.missedDone + f.overdueOpen,
		Running:        f.ranLast,
		Unresolved:     sub - f.completed,
		TotalEmissions: f.emissionsG,
		SlotHoursUsed:  f.slotHours,
		SlotHoursTotal: float64(f.totalSlots * f.hour),
	}
	st.Queued = st.Unresolved - st.Running
	return st
}

// TenantStat aggregates one tenant's jobs (FleetStats semantics,
// sliced per tenant, plus executed slot-hours — the fair-share
// denominator).
type TenantStat struct {
	Submitted, Completed, Missed int
	Running, Queued, Unresolved  int
	SlotHours                    int
	Emissions                    float64
}

// TenantStats aggregates the fleet's jobs per (normalized) tenant. One
// walk over the job store under the read lock — monitoring-path cost,
// not Step-path.
func (f *ShardedFleet) TenantStats() map[string]TenantStat {
	f.mu.RLock()
	defer f.mu.RUnlock()
	blocks, tenants, n := f.view()
	out := make(map[string]TenantStat)
	for seq := uint32(0); seq < n; seq++ {
		r := blocks.at(seq)
		name := tenant.Normalize(tenants[r.tenantI])
		ts := out[name]
		ts.Submitted++
		ts.SlotHours += int(r.progress)
		ts.Emissions += r.emissions
		if r.done() {
			ts.Completed++
			if int(r.doneAt) > r.deadline() {
				ts.Missed++
			}
		} else {
			ts.Unresolved++
			if r.deadline() <= f.hour {
				ts.Missed++
			}
			if r.ranAt(f.hour) {
				ts.Running++
			} else {
				ts.Queued++
			}
		}
		out[name] = ts
	}
	return out
}

// TenantArrivals counts jobs per (normalized) tenant that arrived at
// the given hour — the seed for rebuilding admission-quota windows
// after crash recovery or follower promotion.
func (f *ShardedFleet) TenantArrivals(hour int) map[string]int {
	f.mu.RLock()
	defer f.mu.RUnlock()
	blocks, tenants, n := f.view()
	out := make(map[string]int)
	for seq := uint32(0); seq < n; seq++ {
		if r := blocks.at(seq); int(r.arrival) == hour {
			out[tenant.Normalize(tenants[r.tenantI])]++
		}
	}
	return out
}

// Snapshot aggregates the fleet's outcomes so far into a Result, in job
// submission order. An uncompleted job
// counts as missed once its deadline is at or before the current hour.
func (f *ShardedFleet) Snapshot() Result {
	f.mu.RLock()
	defer f.mu.RUnlock()
	blocks, tenants, n := f.view()
	res := Result{
		Policy:         f.policy.Name(),
		SlotHoursUsed:  f.slotHours,
		SlotHoursTotal: float64(f.totalSlots * f.horizon),
	}
	if n > 0 { // an empty fleet's Outcomes stay nil
		res.Outcomes = make([]Outcome, 0, n)
	}
	for seq := uint32(0); seq < n; seq++ {
		r := blocks.at(seq)
		out := Outcome{
			Job:        f.job(r, tenants),
			Completed:  r.done(),
			Emissions:  r.emissions,
			WaitHours:  int(r.waitHours),
			Migrations: int(r.migrations),
		}
		if r.done() {
			out.CompletedAt = int(r.doneAt)
			out.MissedDeadline = int(r.doneAt) > r.deadline()
			res.Completed++
		} else {
			out.MissedDeadline = r.deadline() <= f.hour
		}
		if out.MissedDeadline {
			res.Missed++
		}
		res.TotalEmissions += r.emissions
		res.Outcomes = append(res.Outcomes, out)
	}
	if res.Completed > 0 {
		var wait float64
		for _, o := range res.Outcomes {
			if o.Completed {
				wait += float64(o.WaitHours)
			}
		}
		res.MeanWaitHours = wait / float64(res.Completed)
	}
	return res
}
