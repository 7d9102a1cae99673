package sched

import (
	"cmp"
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

// Fleet is the fleet core — the one hour-stepped scheduler in the
// compiled code. Run drives it offline (every job submitted up front);
// internal/schedd serves it over HTTP against a replayed clock, with
// jobs submitted while it runs. The two paths share every line of
// scheduling logic, so the online service is placement-for-placement
// identical to the batch simulator — and to the serial reference
// scheduler the tests keep (reference_test.go,
// TestShardedFleetEquivalence).
//
// The fleet keeps one job list in submission order and steps it
// serially on the caller: every phase of Step walks that list (or the
// hour's candidate pool drawn from it) once, in submission order.
// DESIGN.md "The fleet core" says why Step is serial.
//
// Two structural optimizations are invisible to results: jobs that have
// not yet arrived wait in arrival buckets instead of being rescanned
// every hour, and completed jobs are compacted out of the active list.
// A Step therefore costs O(active jobs) plus O(eligible) policy work,
// not O(all jobs).
//
// A Fleet is safe for concurrent use: Step excludes everything else,
// while Submit, Lookup, Stats, and Snapshot may run concurrently with
// each other (Submits only contend on a short id-registry critical
// section).
//
// Lock hierarchy (always acquired in this order, never the reverse):
// world mu (RLock for Submit/Lookup/Stats/Snapshot, Lock for Step) →
// idMu (the job store and the job lists).
type Fleet struct {
	policy  Policy
	horizon int

	regionsList []string
	regionIdx   map[string]int // region code -> index
	traces      []*trace.Trace // by region index
	slotsByIdx  []int          // by region index
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
	// without further locking. Step's one rewrite of a directory entry,
	// freezing a block, is made under idMu too, for Has, which takes no
	// world lock (finishInBlock). The id index is different: a put can move
	// any slot of a table, so it is only read under idMu. Step never
	// touches it: a policy names jobs by their position in the hour's
	// eligible list, and a block is dense or not from its first record,
	// not from its freeze.
	//
	// Submit appends each admitted job to active or pending under idMu,
	// in the same critical section that hands out its sequence number, so
	// both stay sorted by sequence without an insertion; Step and
	// Unmarshal rewrite them holding the world write lock, which excludes
	// every Submit. So the active list's header, copied under idMu beside
	// the store's (view), is a stable view too: Submit only writes past
	// its length, and nothing else writes while the reader holds the
	// world read lock.
	idMu sync.Mutex
	jobStore
	submitted atomic.Int64
	active    []activeJob      // arrived, uncompleted jobs by sequence, ascending
	pending   map[int][]uint32 // arrival hour -> future arrivals, ascending

	// Step scratch and incrementally-maintained aggregates. All of it is
	// touched only under mu.Lock (Step) — except buckets, which Submit
	// also grows under idMu; Submit holds mu.RLock, so it can never race
	// a Step. The scratch is kept between Steps, so a Step that admits no
	// arrivals allocates nothing.
	free        []int    // per-region free slots this hour
	pool        []uint32 // this hour's candidates (positions in active), filtered and permuted in place into the eligible list
	tick        Tick     // the Tick handed to the policy, refilled each hour
	completed   int
	missedDone  int     // completed past their deadline
	overdueOpen int     // unresolved jobs whose deadline has passed
	ranLast     int     // non-done jobs that ran in the most recent Step
	emissionsG  float64 // accumulated in execution order (see Stats)
	slotHours   float64
	buckets     map[int]int // deadline hour -> unresolved jobs due then

	// fq, when non-nil, is the tenant fair-dequeue engine: it permutes
	// each hour's policy-eligible list into weighted-fair (deficit round
	// robin) order and is charged one unit per executed job-hour. Its
	// pass state is part of the fleet image. Touched only in Step's
	// serial sections and under mu during Marshal/Unmarshal.
	fq *tenant.FairQueue

	// OnPlace, when non-nil, observes every executed job-hour: it is
	// called once per job that runs during a Step, after the hour's
	// placements are final, in submission order. Step builds the Placed
	// only when the hook is set. Set it before the first Step; it must
	// not call back into the fleet.
	OnPlace func(Placed)
}

// Placed is one executed job-hour: where the job ran, where it came
// from, what each of those regions' intensity was that hour, and why it
// ran then.
type Placed struct {
	Hour, JobID int
	// Region and Origin are region indices (Fleet.Regions order).
	Region, Origin int
	Tenant         string
	// CI and OriginCI are Region's and Origin's intensity at Hour: what
	// the job-hour paid, and what running it at home would have.
	CI, OriginCI float64
	By           By
}

// By says which phase of Step placed a job-hour.
type By uint8

const (
	// ByContinued: a started non-interruptible job keeps its slot.
	ByContinued By = iota + 1
	// ByDeadline: the job had no slack left and was forced to run.
	ByDeadline
	// ByPolicy: the policy's plan chose the job and the region.
	ByPolicy
)

// jobRec is what the fleet keeps for every job it has seen, in 40
// pointer-free bytes: hours and counters are 32-bit (Job.Validate bounds
// every deadline by math.MaxInt32), regions are indices into
// regionsList, the tenant is an index into the fleet's tenant table, and
// the booleans are the image's flag bits. Origin and Tenant strings are
// rebuilt from those tables where a caller needs them, and the id from
// its block (recBlockEntry.id): a dense block keeps the id's low byte in
// the record, a sparse one the whole id in a side column. Because a
// record holds no pointer, the blocks are allocated no-scan: the garbage
// collector never marks the job store, however many jobs are resident.
// These 40 bytes are what a job costs while its block is hot; once every
// job in its block is done, the block is frozen and the record is packed
// (frozenBlock).
//
// What only a running job needs lives in its activeJob instead: its
// progress (a done job's is its length, a job not yet stepped has none).
// Step's per-hour placement takes the record's last two bytes and two
// bits of flags. Step writes in place every field but the hours and
// indices Submit fixed and idLo, which Has reads beside it. Two outcome
// fields are derived, never stored, because each hour a job has been in
// the fleet it either ran or waited: doneAt is lastRun+1, and waitHours
// is what is left of the hours since arrival once its run-hours are
// taken out (derivedWait). Unmarshal refuses an image that breaks either
// identity.
type jobRec struct {
	emissions  float64
	arrival    int32
	length     int32
	slack      int32
	lastRun    int32 // hour of the most recent run, -1 never
	migrations int32
	tenantI    uint32
	originI    int16
	regionI    int16 // current region index, -1 before the first run
	flags      uint8 // flagInterruptible | flagMigratable | flagDone, and By from byShift
	idLo       uint8 // a dense block's id less position, its low byte (recBlockEntry.idFrom)

	// Step's decision for the hour it is stepping: the region index
	// placed, -1 none, and in flags the phase that placed it. Meaningful
	// only inside Step; nothing else reads them, and neither an image nor
	// a frozen block keeps them.
	placed int16
}

// byShift places Step's By in flags, above the image's bits.
const byShift = 4

func (r *jobRec) deadline() int       { return int(r.arrival) + int(r.length) + int(r.slack) }
func (r *jobRec) done() bool          { return r.flags&flagDone != 0 }
func (r *jobRec) interruptible() bool { return r.flags&flagInterruptible != 0 }
func (r *jobRec) migratable() bool    { return r.flags&flagMigratable != 0 }
func (r *jobRec) by() By              { return By(r.flags >> byShift) }

// place records Step's decision for the hour: region ri, by phase by.
func (r *jobRec) place(ri int16, by By) {
	r.placed, r.flags = ri, r.flags&^(3<<byShift)|uint8(by)<<byShift
}

// doneAt is the hour after a done job's last run: it completed in the
// Step of hour lastRun.
func (r *jobRec) doneAt() int { return int(r.lastRun) + 1 }

// waitHours is the hours the job was runnable but did not run, as of
// hour, given its progress.
func (r *jobRec) waitHours(hour int, progress int32) int {
	return derivedWait(hour, int(r.arrival), int(progress), r.doneAt(), r.done())
}

// derivedWait derives a job's wait from the rest of its state: from its
// arrival until it completed (or until hour), every Step either ran it
// or made it wait. A job that has not arrived has waited 0 hours.
func derivedWait(hour, arrival, progress, doneAt int, done bool) int {
	if arrival > hour {
		return 0
	}
	if done {
		hour = min(hour, doneAt)
	}
	return hour - arrival - progress
}

// ranAt reports whether the job's most recent run was the hour before
// hour, i.e. it is running as of hour.
func (r *jobRec) ranAt(hour int) bool { return r.lastRun >= 0 && int(r.lastRun) == hour-1 }

// activeJob is an arrived, unfinished job's entry in the active list:
// its sequence number and the run-hours it has had. 8 bytes, and only
// jobs Step still has to visit have one.
type activeJob struct {
	seq      uint32
	progress int32
}

// storeView is the job store as of one moment (view), for reads that run
// beside Submit: the block directory, the last block's ids as they were
// kept then, the tenant table and the active list, with a cursor that
// reads progress beside an ascending walk of sequence numbers, advancing
// one position through the active list (sorted by seq too) as it goes.
type storeView struct {
	f       *Fleet
	blocks  recBlocks
	lastLo  int            // the last block's lo, as the view found it
	lastIDs *[recBlock]int // the last block's side column, as the view found it
	tenants []string
	active  []activeJob
	k       int // the cursor's position in active
}

// id returns the id of the job at seq. The view's last block is the
// index's tail, the one block whose lo a Submit may lower, or whose side
// column it may make or take back, while the view is read, so it is read
// as the view took it under idMu: that lo and column are good for every
// record the view covers. Every earlier block was closed before the view
// was taken, and only a freeze, which a reader excludes, changes it.
func (v *storeView) id(seq uint32) int {
	e, lo, ids := &v.blocks[seq/recBlock], v.lastLo, v.lastIDs
	if int(seq/recBlock) < len(v.blocks)-1 {
		lo, ids = e.lo, e.ids
	}
	return e.idFrom(lo, ids, seq%recBlock)
}

// progress returns the run-hours the job at seq has had: its length
// once done, its active entry's count while it runs, and 0 for a job no
// Step has admitted yet. Calls must come in ascending seq order.
func (v *storeView) progress(seq uint32, r *jobRec) int32 {
	if r.done() {
		return r.length
	}
	for v.k < len(v.active) && v.active[v.k].seq < seq {
		v.k++
	}
	if v.k < len(v.active) && v.active[v.k].seq == seq {
		return v.active[v.k].progress
	}
	return 0
}

// recBlocks is the job store: records in fixed-size blocks, addressed by
// submission sequence, through a directory of one entry per block. A
// block starts hot, a 40 KiB array of records that Submit appends to and
// Step writes in place, its ids kept by the index's verdict on the block
// (idIndex.add): a dense block's as each record's low byte of its id less
// its position, read against the block's lo, a sparse block's in an
// 8 KiB side column made when it spills. When Step completes the last
// unfinished job of a full block, nothing will write to it again, and
// the block is frozen: packed into a frozenBlock, the entry swapped under
// idMu, and the hot array and side column dropped. Unmarshal freezes
// every full block of done jobs it restores. Whether a block is hot or
// frozen is a property of the block alone, so every fleet holding the
// same jobs at the same hour stores them alike.
//
// Hot arrays never move, so a *jobRec into one (hot) stays valid for as
// long as the block has an unfinished job — which is every record Step,
// appendRec and Submit's undo ever touch. Every other reader takes a
// record by value (rec), and its emissions separately (emissions) if it
// needs them, since a frozen block re-sums them from the traces; the id
// index reads only ids (id). A copy of the directory taken under idMu,
// with the last block's lo and side column (storeView), stays a valid
// view of every job submitted before it for as long as the reader holds
// the world read lock, which excludes the Step that would freeze a block
// under it. Records are never freed: the fleet retains every job it has
// seen.
type recBlocks []recBlockEntry

const recBlock = 1024

// recBlockEntry is one block's directory entry.
type recBlockEntry struct {
	hot    *[recBlock]jobRec // nil once frozen
	ids    *[recBlock]int    // a sparse hot block's ids, nil while the block is dense
	lo     int               // a dense hot block's least id less position, as far as it is written
	frozen frozenBlock       // the packed records, once hot is nil
	open   uint16            // published jobs in the block that are not done
}

// hot returns the record at seq, whose block must be hot.
func (b recBlocks) hot(seq uint32) *jobRec { return &b[seq/recBlock].hot[seq%recBlock] }

// rec returns a copy of the record at seq, hot or frozen — a frozen one
// without its emissions, which only emissions reads.
func (b recBlocks) rec(seq uint32) jobRec {
	e := &b[seq/recBlock]
	if e.hot != nil {
		return e.hot[seq%recBlock]
	}
	return e.frozen.rec(seq % recBlock)
}

// emissions returns the emissions of the job at seq, whose record r is
// rec(seq); traces are the fleet's.
func (b recBlocks) emissions(seq uint32, r *jobRec, traces []*trace.Trace) float64 {
	e := &b[seq/recBlock]
	if e.hot != nil {
		return r.emissions
	}
	return e.frozen.emissions(seq%recBlock, r, traces)
}

// id returns the id of the job at seq, hot or frozen.
func (b recBlocks) id(seq uint32) int { return b[seq/recBlock].id(seq % recBlock) }

// id returns the id of the block's record i.
func (e *recBlockEntry) id(i uint32) int { return e.idFrom(e.lo, e.ids, i) }

// idFrom returns the id of the block's record i, lo and ids being the
// block's as the caller took them; a frozen block has no side column.
func (e *recBlockEntry) idFrom(lo int, ids *[recBlock]int, i uint32) int {
	switch {
	case ids != nil:
		return ids[i]
	case e.hot == nil:
		return e.frozen.id(i)
	}
	return e.denseV(lo, i) + int(i)
}

// denseV returns the id less position of record i of a dense hot block
// whose lo is lo. Each of the block's lies in lo to lo+255 (idIndex.add),
// so its low byte fixes it: lo plus the low byte less lo's, wrapped to a
// byte.
func (e *recBlockEntry) denseV(lo int, i uint32) int { return lo + int(e.hot[i].idLo-uint8(lo)) }

// spill gives the block, turning sparse, a side column holding its first
// n ids, read from their low bytes.
func (e *recBlockEntry) spill(n uint32) {
	ids := new([recBlock]int)
	for i := range n {
		ids[i] = e.id(i)
	}
	e.ids = ids
}

// freezeWith swaps the block, full of done jobs, for fb, its packed form.
func (e *recBlockEntry) freezeWith(fb frozenBlock) { e.hot, e.ids, e.frozen = nil, nil, fb }

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

// NewFleet validates the world and returns an empty fleet at hour zero.
// The fleet keeps set's traces and reads them for as long as it lives —
// Step for each hour's intensities, frozen record blocks to re-sum a done
// job's emissions — so set must not be mutated after construction.
func NewFleet(set *trace.Set, clusters []Cluster, policy Policy, horizon int) (*Fleet, error) {
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
	f := &Fleet{
		policy:    policy,
		horizon:   horizon,
		regionIdx: make(map[string]int, len(clusters)),
		jobStore:  newJobStore(),
		pending:   make(map[int][]uint32),
		buckets:   make(map[int]int),
	}
	for k, c := range clusters {
		if c.Slots < 1 {
			return nil, fmt.Errorf("sched: cluster %s has %d slots", c.Region, c.Slots)
		}
		if _, ok := set.Get(c.Region); !ok {
			return nil, fmt.Errorf("sched: cluster region %q not in trace set", c.Region)
		}
		if _, dup := f.regionIdx[c.Region]; dup {
			return nil, fmt.Errorf("sched: duplicate cluster %s", c.Region)
		}
		f.regionIdx[c.Region] = k // the cluster's position, until sorted below
		f.regionsList = append(f.regionsList, c.Region)
		f.totalSlots += c.Slots
	}
	sort.Strings(f.regionsList)
	f.traces = make([]*trace.Trace, len(f.regionsList))
	f.slotsByIdx = make([]int, len(f.regionsList))
	f.free = make([]int, len(f.regionsList))
	for i, r := range f.regionsList {
		f.slotsByIdx[i] = clusters[f.regionIdx[r]].Slots
		f.regionIdx[r] = i
		f.traces[i] = set.MustGet(r)
	}
	f.tick = Tick{
		CI:     make([]float64, len(f.regionsList)),
		Free:   make([]int, len(f.regionsList)),
		traces: f.traces,
	}
	return f, nil
}

// SetFairQueue installs the tenant fair-dequeue engine. It must be set
// before the first Step (and before Unmarshal of an image that carries
// tenancy state); changing it mid-run would silently diverge placements
// from a replayed or replicated fleet.
func (f *Fleet) SetFairQueue(q *tenant.FairQueue) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.fq = q
}

// Hour returns the next hour the fleet will simulate.
func (f *Fleet) Hour() int {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.hour
}

// Done reports whether the fleet has simulated its whole horizon.
func (f *Fleet) Done() bool {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.hour >= f.horizon
}

// Jobs returns the number of jobs submitted so far.
func (f *Fleet) Jobs() int { return int(f.submitted.Load()) }

// Outstanding returns the number of submitted jobs that have not yet
// completed, in O(1) — the backpressure signal for online admission.
func (f *Fleet) Outstanding() int {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return int(f.submitted.Load()) - f.completed
}

// Regions lists the cluster regions in sorted order.
func (f *Fleet) Regions() []string {
	out := make([]string, len(f.regionsList))
	copy(out, f.regionsList)
	return out
}

// Submit adds jobs to the fleet at their own arrival hours. The call is
// atomic: on any validation error no job from the batch is admitted.
// Safe for concurrent use.
func (f *Fleet) Submit(jobs ...Job) error {
	f.mu.RLock()
	defer f.mu.RUnlock()
	_, err := f.submitRLocked(jobs, false)
	return err
}

// SubmitNow stamps every job's arrival with the fleet's current hour —
// the online-service admission path, where work always arrives "now" —
// and returns the arrival hour used. It fails with ErrHorizonExhausted
// once the replay is over. A non-nil check is evaluated under the world
// read lock, where the arrival hour is frozen: it sees exactly the hour
// the batch will be stamped with, closing the race between a
// caller-side quota check and a concurrent Step moving the hour. A
// check error rejects the whole batch and is returned verbatim.
func (f *Fleet) SubmitNow(check func(hour int) error, jobs ...Job) (int, error) {
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
func (f *Fleet) submitRLocked(jobs []Job, stampNow bool) (int, error) {
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
	nblocks, ntenants, tail := len(f.blocks), len(f.tenants), f.ids.tail
	for i := range jobs {
		j := &jobs[i]
		if err := f.admissible(j); err != nil {
			// Undo jobs[:i]: their index entries and any spill they made
			// (read through their records, so before the blocks go), any
			// block they opened, any tenant name only they used.
			f.ids.rollback(f.blocks, tail, first, first+uint32(i))
			f.blocks = f.blocks[:nblocks]
			for _, name := range f.tenants[ntenants:] {
				delete(f.tenantIdx, name)
			}
			f.tenants = f.tenants[:ntenants]
			f.idMu.Unlock()
			return 0, err
		}
		f.appendRec(first+uint32(i), j, f.regionIdx[j.Origin])
	}
	// Past this point nothing can fail: publish the batch. Its sequence
	// numbers are the highest yet, so appending keeps both lists sorted.
	// Each job is counted into its block's unfinished jobs only here, so
	// the undo above has no count to take back.
	for i := range jobs {
		f.buckets[jobs[i].Deadline()]++
		seq := first + uint32(i)
		f.blocks[seq/recBlock].open++
		if a := jobs[i].Arrival; a <= f.hour {
			f.active = append(f.active, activeJob{seq: seq})
		} else {
			f.pending[a] = append(f.pending[a], seq)
		}
	}
	f.submitted.Add(int64(len(jobs)))
	f.idMu.Unlock()
	return f.hour, nil
}

// admissible reports why the fleet cannot take j now. idMu must be held.
func (f *Fleet) admissible(j *Job) error {
	if err := j.Validate(); err != nil {
		return err
	}
	if _, ok := f.regionIdx[j.Origin]; !ok {
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
// sequence number, indexes its id (which keeps it in the block), and
// returns it. originI is j.Origin's
// region index. The caller has checked that j.ID is absent. The fleet's
// idMu must be held.
func (s *jobStore) appendRec(seq uint32, j *Job, originI int) *jobRec {
	if seq%recBlock == 0 {
		s.blocks = append(s.blocks, recBlockEntry{hot: new([recBlock]jobRec)})
	}
	r := s.blocks.hot(seq)
	*r = jobRec{
		arrival: int32(j.Arrival),
		length:  int32(j.Length),
		slack:   int32(j.Slack),
		lastRun: -1,
		tenantI: s.internTenant(j.Tenant),
		originI: int16(originI),
		regionI: -1,
	}
	if j.Interruptible {
		r.flags |= flagInterruptible
	}
	if j.Migratable {
		r.flags |= flagMigratable
	}
	s.ids.add(s.blocks, j.ID, seq)
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

// view returns the job store as of now and the number of jobs it covers.
// The world read lock must be held.
func (f *Fleet) view() (storeView, uint32) {
	f.idMu.Lock()
	defer f.idMu.Unlock()
	return f.viewLocked(0), uint32(f.submitted.Load())
}

// viewLocked returns the job store as of now, its cursor at position k
// of the active list. idMu must be held.
func (f *Fleet) viewLocked(k int) storeView {
	v := storeView{f: f, blocks: f.blocks, tenants: f.tenants, active: f.active, k: k}
	if n := len(f.blocks); n > 0 {
		v.lastLo, v.lastIDs = f.blocks[n-1].lo, f.blocks[n-1].ids
	}
	return v
}

// read sets info to the job at seq as of the fleet's current hour, and
// returns its record. It is the one place the read rules live: progress
// is the active entry's (a done job's is its length), wait and
// completion are derived from the record, and a done job missed its
// deadline if it finished after it, any other job once its deadline is
// at or before the current hour. Successive calls must come in
// ascending seq order. It sets the caller's JobInfo field by field, the
// submitted Job rebuilt from the record included: returning a JobInfo,
// or assigning it or its Job whole, copies through a temporary, which
// made Snapshot and TenantStats up to twice as slow.
func (v *storeView) read(seq uint32, info *JobInfo) jobRec {
	f, r := v.f, v.blocks.rec(seq)
	progress := v.progress(seq, &r)
	info.ID, info.Origin, info.Tenant = v.id(seq), f.regionsList[r.originI], v.tenants[r.tenantI]
	info.Arrival, info.Length, info.Slack = int(r.arrival), int(r.length), int(r.slack)
	info.Interruptible, info.Migratable = r.interruptible(), r.migratable()
	info.Completed, info.CompletedAt = r.done(), 0
	info.MissedDeadline = r.deadline() <= f.hour
	info.Emissions = v.blocks.emissions(seq, &r, f.traces)
	info.WaitHours = r.waitHours(f.hour, progress)
	info.Migrations = int(r.migrations)
	info.Remaining, info.Region, info.Running = int(r.length-progress), "", r.ranAt(f.hour)
	if r.regionI >= 0 {
		info.Region = f.regionsList[r.regionI]
	}
	if r.done() {
		info.CompletedAt = r.doneAt()
		info.MissedDeadline = r.doneAt() > r.deadline()
	}
	return r
}

// admitArrivals merges one hour's arrivals (ascending seqs) into the
// active list as new, not-yet-run entries, in place from the back, so
// the list stays sorted by seq without a second buffer. The world write
// lock must be held.
func (f *Fleet) admitArrivals(batch []uint32) {
	i := len(f.active) - 1
	f.active = slices.Grow(f.active, len(batch))[:len(f.active)+len(batch)]
	for k, j := len(f.active)-1, len(batch)-1; j >= 0; k-- {
		if i >= 0 && f.active[i].seq > batch[j] {
			f.active[k] = f.active[i]
			i--
		} else {
			f.active[k] = activeJob{seq: batch[j]}
			j--
		}
	}
}

// Step simulates the fleet's current hour and advances to the next. It
// errors past the horizon and on a misbehaving policy (a job position or
// region index out of range, double placement, pinned migration,
// oversubscription). Its four phases run serially on the calling
// goroutine, each over the job list in submission order.
func (f *Fleet) Step() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.hour >= f.horizon {
		return fmt.Errorf("sched: horizon %d exhausted", f.horizon)
	}
	hour := f.hour

	// Phase 1: inject this hour's arrivals, reset the free counts, claim
	// slots for forced continuations — a started non-interruptible job
	// occupies its current region — and collect everything else into
	// the seq-sorted candidate pool. From here to phase 4 the active list
	// does not move, so the pool and the eligible list name jobs by their
	// position in it. Each phase reads progress in the entry, and the
	// hour's placement in the record.
	if batch := f.pending[hour]; len(batch) > 0 {
		f.admitArrivals(batch)
		delete(f.pending, hour)
	}
	copy(f.free, f.slotsByIdx)
	pool := f.pool[:0]
	for i := range f.active {
		a := &f.active[i]
		r := f.blocks.hot(a.seq)
		if a.progress > 0 && !r.interruptible() {
			r.place(r.regionI, ByContinued)
			f.free[r.regionI]--
		} else {
			r.placed = -1
			pool = append(pool, uint32(i))
		}
	}
	f.pool = pool

	// Phase 2: deadline forcing in submission order — a job with no
	// slack left must run now, in its current/origin region or (if
	// migratable) the first region, in index order, with space. What is
	// not placed stays eligible for the policy: the pool, this being its
	// last use this hour, is filtered in place into the eligible list.
	eligible := pool[:0]
	for _, i := range pool {
		a := &f.active[i]
		r := f.blocks.hot(a.seq)
		if r.deadline()-hour > int(r.length-a.progress) {
			eligible = append(eligible, i)
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
			r.place(int16(ri), ByDeadline)
			f.free[ri]--
		} else {
			eligible = append(eligible, i)
		}
	}

	// Phase 3: the policy's placement pass over the flexible remainder —
	// one Tick over every region, its eligible jobs in submission order
	// (or fair order, with tenancy on, permuted in place). The policy
	// names jobs by position in the list and regions by index, so a
	// placement resolves without a lookup; the Tick reads each job it is
	// asked for from its entry and record (Tick.Job).
	f.fairOrder(eligible)
	tick := &f.tick
	tick.Hour, tick.active, tick.blocks, tick.pos = hour, f.active, f.blocks, eligible
	copy(tick.Free, f.free)
	for ri, tr := range f.traces {
		tick.CI[ri] = tr.At(hour)
	}
	placements := f.policy.Plan(tick)
	// Drop the Tick's hold on the lists: Submit may outgrow them before
	// the next Step, and the Tick must not keep the old arrays alive.
	tick.active, tick.blocks = nil, nil
	for _, p := range placements {
		if p.Job < 0 || p.Job >= len(eligible) {
			return fmt.Errorf("sched: policy %s placed unknown job #%d of %d eligible", f.policy.Name(), p.Job, len(eligible))
		}
		seq := f.active[eligible[p.Job]].seq
		r := f.blocks.hot(seq)
		if r.placed >= 0 {
			return fmt.Errorf("sched: policy %s double-placed job %d", f.policy.Name(), f.blocks.id(seq))
		}
		if p.Region < 0 || p.Region >= len(f.free) {
			return fmt.Errorf("sched: policy %s used unknown region #%d", f.policy.Name(), p.Region)
		}
		if !r.migratable() && p.Region != int(r.originI) {
			return fmt.Errorf("sched: policy %s migrated pinned job %d", f.policy.Name(), f.blocks.id(seq))
		}
		if f.free[p.Region] <= 0 {
			return fmt.Errorf("sched: policy %s oversubscribed region %s", f.policy.Name(), f.regionsList[p.Region])
		}
		r.place(int16(p.Region), ByPolicy)
		f.free[p.Region]--
	}

	// Phase 4: advance the world. Placements are final, so each job that
	// runs is advanced, charged to its tenant, reported to OnPlace and
	// folded into the aggregates in one pass in submission order;
	// completed jobs are compacted out of the active list. A job that
	// waits needs no write: its wait is derived from the hour.
	f.ranLast = 0
	keep := f.active[:0]
	for _, a := range f.active {
		r := f.blocks.hot(a.seq)
		ri := r.placed
		if ri < 0 {
			keep = append(keep, a)
			continue
		}
		if r.regionI >= 0 && r.regionI != ri {
			r.migrations++
		}
		r.regionI = ri
		r.lastRun = int32(hour)
		a.progress++
		ci := f.traces[ri].At(hour)
		r.emissions += ci
		f.slotHours++
		f.emissionsG += ci
		if f.fq != nil {
			f.fq.Charge(f.tenants[r.tenantI])
		}
		if f.OnPlace != nil {
			f.OnPlace(Placed{
				Hour:     hour,
				JobID:    f.blocks.id(a.seq),
				Region:   int(ri),
				Origin:   int(r.originI),
				Tenant:   f.tenants[r.tenantI],
				CI:       ci,
				OriginCI: f.traces[r.originI].At(hour),
				By:       r.by(),
			})
		}
		if a.progress < r.length {
			f.ranLast++
			keep = append(keep, a)
			continue
		}
		r.flags |= flagDone // doneAt is lastRun+1 = hour+1
		f.completed++
		if d := r.deadline(); d <= hour {
			// doneAt = hour+1 > d: a late finish. Its bucket was already
			// drained into overdueOpen when hour passed d.
			f.overdueOpen--
			f.missedDone++
		} else if f.buckets[d]--; f.buckets[d] == 0 {
			delete(f.buckets, d)
		}
		f.finishInBlock(a.seq)
	}
	f.active = keep
	if n := f.buckets[hour+1]; n > 0 {
		f.overdueOpen += n
		delete(f.buckets, hour+1)
	}
	f.hour = hour + 1
	return nil
}

// finishInBlock counts the job at seq, just completed, out of its block's
// unfinished jobs, and freezes the block if that was the last one and the
// block is full. The packing reads only the hot array and the block's
// ids, which nothing else writes while Step holds the world write lock;
// the entry is swapped under idMu because Has reads ids through the
// directory holding idMu alone. The index is left as it was: a block
// indexes itself or not by its ids, hot or frozen. The hot array and any
// side column are garbage from then on.
func (f *Fleet) finishInBlock(seq uint32) {
	e := &f.blocks[seq/recBlock]
	if e.open--; e.open > 0 || seq/recBlock >= uint32(f.submitted.Load())/recBlock {
		return
	}
	frozen := freeze(e, f.traces)
	f.idMu.Lock()
	e.freezeWith(frozen)
	f.idMu.Unlock()
}

// fairOrder permutes one hour's eligible active-list positions in place
// into the fair queue's dequeue order, grouping them by the records'
// tenant indices; without a queue they stay in submission order.
func (f *Fleet) fairOrder(eligible []uint32) {
	if f.fq == nil {
		return
	}
	f.fq.Permute(eligible, len(f.tenants),
		func(i uint32) int { return int(f.blocks.hot(f.active[i].seq).tenantI) },
		func(ti int) string { return f.tenants[ti] })
}

// JobInfo is the live view of one submitted job: its outcome so far
// (MissedDeadline is true for a late completion or an uncompleted job
// whose deadline has passed), and where it stands.
type JobInfo struct {
	Outcome
	// Remaining is the run-hours still needed.
	Remaining int
	// Region is the most recent placement ("" before the first run).
	Region string
	// Running reports whether the job ran in the most recent Step.
	Running bool
}

// Lookup returns the live view of a submitted job. The view is read
// straight into the named result: a local JobInfo returned would be
// copied out whole.
func (f *Fleet) Lookup(id int) (info JobInfo, ok bool) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	f.idMu.Lock()
	seq, ok := f.ids.get(f.blocks, id)
	if !ok {
		f.idMu.Unlock()
		return
	}
	// Start the cursor at the job's own active entry, if it has one.
	k, _ := slices.BinarySearchFunc(f.active, seq, func(a activeJob, s uint32) int { return cmp.Compare(a.seq, s) })
	v := f.viewLocked(k)
	f.idMu.Unlock()
	v.read(seq, &info)
	return
}

// Has reports whether a job with this id has been submitted: Lookup's
// second result without the view of the job. It waits for neither the
// world lock nor a Step — the index and the ids it reads through change
// only under idMu.
func (f *Fleet) Has(id int) bool {
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
func (f *Fleet) Stats() FleetStats {
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
// denominator). Its tags are the /v1/stats tenant row's keys, in the
// row's order.
type TenantStat struct {
	Submitted  int     `json:"submitted"`
	Completed  int     `json:"completed"`
	Missed     int     `json:"missed"`
	Running    int     `json:"running"`
	Queued     int     `json:"queue_depth"`
	Unresolved int     `json:"unresolved"`
	SlotHours  int     `json:"slot_hours"`
	Emissions  float64 `json:"emissions_g"`
}

// Add folds o into t: every field is a count or a sum, so tenants (or
// partitions) add field by field.
func (t *TenantStat) Add(o TenantStat) {
	t.Submitted += o.Submitted
	t.Completed += o.Completed
	t.Missed += o.Missed
	t.Running += o.Running
	t.Queued += o.Queued
	t.Unresolved += o.Unresolved
	t.SlotHours += o.SlotHours
	t.Emissions += o.Emissions
}

// TenantStats aggregates the fleet's jobs per (normalized) tenant. One
// walk over the job store under the read lock — monitoring-path cost,
// not Step-path.
func (f *Fleet) TenantStats() map[string]TenantStat {
	f.mu.RLock()
	defer f.mu.RUnlock()
	v, n := f.view()
	out := make(map[string]TenantStat)
	var info JobInfo
	for seq := uint32(0); seq < n; seq++ {
		v.read(seq, &info)
		name := tenant.Normalize(info.Tenant)
		ts := out[name]
		ts.Submitted++
		ts.SlotHours += info.Length - info.Remaining
		ts.Emissions += info.Emissions
		switch {
		case info.Completed:
			ts.Completed++
		case info.Running:
			ts.Unresolved++
			ts.Running++
		default:
			ts.Unresolved++
			ts.Queued++
		}
		if info.MissedDeadline {
			ts.Missed++
		}
		out[name] = ts
	}
	return out
}

// TenantArrivals counts jobs per (normalized) tenant that arrived at
// the given hour — the seed for rebuilding admission-quota windows
// after crash recovery or follower promotion.
func (f *Fleet) TenantArrivals(hour int) map[string]int {
	f.mu.RLock()
	defer f.mu.RUnlock()
	v, n := f.view()
	out := make(map[string]int)
	for seq := uint32(0); seq < n; seq++ {
		if r := v.blocks.rec(seq); int(r.arrival) == hour {
			out[tenant.Normalize(v.tenants[r.tenantI])]++
		}
	}
	return out
}

// Snapshot aggregates the fleet's outcomes so far into a Result, in job
// submission order. An uncompleted job
// counts as missed once its deadline is at or before the current hour.
func (f *Fleet) Snapshot() Result {
	f.mu.RLock()
	defer f.mu.RUnlock()
	v, n := f.view()
	res := Result{
		Policy:         f.policy.Name(),
		SlotHoursUsed:  f.slotHours,
		SlotHoursTotal: float64(f.totalSlots * f.horizon),
	}
	if n > 0 { // an empty fleet's Outcomes stay nil
		res.Outcomes = make([]Outcome, 0, n)
	}
	var info JobInfo
	for seq := uint32(0); seq < n; seq++ {
		v.read(seq, &info)
		if info.Completed {
			res.Completed++
		}
		if info.MissedDeadline {
			res.Missed++
		}
		res.TotalEmissions += info.Emissions
		res.Outcomes = append(res.Outcomes, info.Outcome)
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
