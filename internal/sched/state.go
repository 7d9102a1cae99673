package sched

// Fleet state serialization: a versioned, deterministic binary image of
// everything a Fleet has accumulated — the submitted jobs with
// their full runtime bookkeeping, the current hour, and the
// order-sensitive float aggregates — restorable into a freshly
// constructed fleet over the same world. internal/schedd snapshots this
// image into its write-ahead store so a crashed scheduler can recover
// to state byte-identical to an uninterrupted run.
//
// Format (version 2), all integers varint-encoded (unsigned for values
// that cannot be negative, zigzag otherwise), strings length-prefixed,
// floats as 8 big-endian IEEE-754 bytes:
//
//	magic "CSFS" | version 2 | policy | horizon | hour
//	| nregions | (region, slots)...        world fingerprint, checked
//	| slotHours | emissionsOrdered         order-sensitive aggregates
//	| tenancy fingerprint                  "" when no tenant config
//	| vtime | npass | (tenant, pass)...    fair-queue state, sorted
//	| njobs | job...                       submission order
//	| crc32(everything above)
//
// Each job is: id (zigzag) | origin | arrival | length | slack |
// flags (1 interruptible, 2 migratable, 4 done, 8 has-tenant) |
// tenant (only when flag 8 is set) | progress |
// regionIdx (zigzag, -1 = never placed) | lastRun (zigzag, -1 = never)
// | doneAt | waitHours | migrations | emissions.
//
// Version 1 is version 2 minus the tenancy section and the has-tenant
// flag; the decoder still accepts it (pre-tenancy snapshots restore as
// all-default-tenant fleets), but restoring a v1 image into a fleet
// with a tenant config installed is refused — the fair queue would
// reorder placements the snapshot never saw.
//
// The encoding is deterministic: the same fleet state always produces
// the same bytes, which is what lets the crash-recovery tests assert
// byte-identity between a recovered and an uninterrupted run. Golden
// tests pin the byte layout; bump stateVersion on any change.
//
// The image is an internal/frame envelope (magic, version, body, CRC)
// whose body is a run of internal/frame fields; that package holds the
// mechanics of both, this file the layout and the checks on what was
// decoded.

import (
	"fmt"
	"math"

	"carbonshift/internal/frame"
	"carbonshift/internal/tenant"
)

const (
	stateMagic   = "CSFS"
	stateVersion = 2
	// stateVersionV1 is the pre-tenancy format, still decoded.
	stateVersionV1 = 1
)

// Job flag bits in the serialized image.
const (
	flagInterruptible = 1 << iota
	flagMigratable
	flagDone
	flagHasTenant
)

// jobImage is one job's full serialized state.
type jobImage struct {
	Job
	progress   int
	regionI    int // index into the fleet's sorted region list, -1 = none
	lastRun    int // hour of the most recent run, -1 = never
	done       bool
	doneAt     int
	waitHours  int
	migrations int
	emissions  float64
}

// fleetImage is the complete serialized state.
type fleetImage struct {
	policy  string
	horizon int
	hour    int
	regions []string
	slots   []int
	// slotHours and emissionsOrdered are the incrementally accumulated
	// aggregates. slotHours is integer-valued; emissionsOrdered is the
	// execution-order (hour-major) emission sum the fleet maintains for
	// O(1) Stats, which re-adding the per-job emissions in submission
	// order would not reproduce to the last float bit.
	slotHours        float64
	emissionsOrdered float64
	// Tenancy section (version 2+): the scheduling-relevant config
	// fingerprint plus the fair queue's virtual-time state.
	tenancyFP string
	fqVtime   int64
	fqNames   []string
	fqPasses  []int64
	jobs      []jobImage
}

// --- image encode/decode ---

// stateEnc builds one image: encodeHeader, njobs × job, finish.
type stateEnc struct{ frame.Enc }

// encodeHeader starts an image: everything up to and including the job
// count. The caller appends exactly njobs jobs with stateEnc.job, in
// submission order, and closes the image with stateEnc.finish.
func (img *fleetImage) encodeHeader(njobs int) *stateEnc {
	e := &stateEnc{frame.Enc{Buf: make([]byte, 0, 64+njobs*48)}}
	e.Buf = append(e.Buf, stateMagic...)
	e.Byte(stateVersion)
	e.String(img.policy)
	e.Int(img.horizon)
	e.Int(img.hour)
	e.Int(len(img.regions))
	for i, r := range img.regions {
		e.String(r)
		e.Int(img.slots[i])
	}
	e.Float64(img.slotHours)
	e.Float64(img.emissionsOrdered)
	e.String(img.tenancyFP)
	e.Int(int(img.fqVtime))
	e.Int(len(img.fqNames))
	for i, name := range img.fqNames {
		e.String(name)
		e.Int(int(img.fqPasses[i]))
	}
	e.Int(njobs)
	return e
}

// appendJob appends the part of a job the image and the journal's admit
// batch encode identically: id (zigzag) | origin | arrival | length |
// slack | flags | tenant (only when flag 8 is set). flags carries the
// bits only the caller knows (the image's done bit).
func appendJob(buf []byte, j *Job, flags byte) []byte {
	e := frame.Enc{Buf: buf}
	e.Varint(j.ID)
	e.String(j.Origin)
	e.Int(j.Arrival)
	e.Int(j.Length)
	e.Int(j.Slack)
	if j.Interruptible {
		flags |= flagInterruptible
	}
	if j.Migratable {
		flags |= flagMigratable
	}
	if j.Tenant != "" {
		flags |= flagHasTenant
	}
	e.Byte(flags)
	if j.Tenant != "" {
		e.String(j.Tenant)
	}
	return e.Buf
}

// decodeJob reverses appendJob and also returns the flags byte as read.
func decodeJob(d *frame.Dec) (j Job, flags byte) {
	j.ID = d.Varint()
	j.Origin = d.String()
	j.Arrival = d.Int()
	j.Length = d.Int()
	j.Slack = d.Int()
	flags = d.Byte()
	j.Interruptible = flags&flagInterruptible != 0
	j.Migratable = flags&flagMigratable != 0
	if flags&flagHasTenant != 0 {
		j.Tenant = d.String()
	}
	return j, flags
}

// job appends one job's serialized state.
func (e *stateEnc) job(j *jobImage) {
	var flags byte
	if j.done {
		flags = flagDone
	}
	e.Buf = appendJob(e.Buf, &j.Job, flags)
	e.Int(j.progress)
	e.Varint(j.regionI)
	e.Varint(j.lastRun)
	e.Int(j.doneAt)
	e.Int(j.waitHours)
	e.Int(j.migrations)
	e.Float64(j.emissions)
}

// finish seals the image with its CRC.
func (e *stateEnc) finish() []byte { return frame.Seal(e.Buf) }

func decodeImage(data []byte) (*fleetImage, error) {
	ver, body, err := frame.Open(data, stateMagic)
	if err != nil {
		return nil, fmt.Errorf("sched: state decode: %w", err)
	}
	if ver != stateVersion && ver != stateVersionV1 {
		return nil, fmt.Errorf("sched: state decode: unsupported version %d (want %d or %d)", ver, stateVersionV1, stateVersion)
	}
	d := &frame.Dec{Data: body}
	img := &fleetImage{}
	img.policy = d.String()
	img.horizon = d.Int()
	img.hour = d.Int()
	for i, nr := 0, d.Count(); i < nr && d.Err == nil; i++ {
		img.regions = append(img.regions, d.String())
		img.slots = append(img.slots, d.Int())
	}
	img.slotHours = d.Float64()
	img.emissionsOrdered = d.Float64()
	if ver >= 2 {
		img.tenancyFP = d.String()
		img.fqVtime = int64(d.Int())
		for i, np := 0, d.Count(); i < np && d.Err == nil; i++ {
			img.fqNames = append(img.fqNames, d.String())
			img.fqPasses = append(img.fqPasses, int64(d.Int()))
		}
	}
	for i, nj := 0, d.Count(); i < nj && d.Err == nil; i++ {
		var j jobImage
		var flags byte
		j.Job, flags = decodeJob(d)
		if flags&flagHasTenant != 0 && ver < 2 {
			return nil, fmt.Errorf("sched: state decode: job %d carries a tenant in a version-1 image", j.ID)
		}
		j.done = flags&flagDone != 0
		j.progress = d.Int()
		j.regionI = d.Varint()
		j.lastRun = d.Varint()
		j.doneAt = d.Int()
		j.waitHours = d.Int()
		j.migrations = d.Int()
		j.emissions = d.Float64()
		img.jobs = append(img.jobs, j)
	}
	if err := d.Done(); err != nil {
		return nil, fmt.Errorf("sched: state decode: %w", err)
	}
	return img, nil
}

// checkWorld verifies the image was taken from the same scheduling
// world as the restoring fleet: policy, horizon, the exact region and
// slot configuration, and the tenancy fingerprint — a snapshot taken
// under one fair-share configuration restored into another would
// silently diverge placements.
func (img *fleetImage) checkWorld(policy string, horizon int, regions []string, slots []int, tenancyFP string) error {
	if img.tenancyFP != tenancyFP {
		return fmt.Errorf("sched: state restore: snapshot tenancy config %q, fleet has %q", img.tenancyFP, tenancyFP)
	}
	if img.policy != policy {
		return fmt.Errorf("sched: state restore: snapshot policy %q, fleet runs %q", img.policy, policy)
	}
	if img.horizon != horizon {
		return fmt.Errorf("sched: state restore: snapshot horizon %d, fleet has %d", img.horizon, horizon)
	}
	if img.hour > horizon {
		return fmt.Errorf("sched: state restore: snapshot hour %d past horizon %d", img.hour, horizon)
	}
	if len(img.regions) != len(regions) {
		return fmt.Errorf("sched: state restore: snapshot has %d regions, fleet has %d", len(img.regions), len(regions))
	}
	for i, r := range img.regions {
		if r != regions[i] {
			return fmt.Errorf("sched: state restore: snapshot region %q, fleet has %q", r, regions[i])
		}
		if img.slots[i] != slots[i] {
			return fmt.Errorf("sched: state restore: region %s snapshot slots %d, fleet has %d", r, img.slots[i], slots[i])
		}
	}
	return nil
}

// checkJobs validates every decoded job against the image's own world
// (which checkWorld ties to the restoring fleet's), so a
// corrupted-but-checksummed image cannot index out of bounds, name a
// region the fleet does not have, carry an hour or counter the fleet's
// 32-bit record would truncate, or carry a field the record derives
// (doneAt, waitHours) or keeps only for arrived jobs (progress) with a
// value it would not restore.
func (img *fleetImage) checkJobs() error {
	regions := make(map[string]bool, len(img.regions))
	for _, r := range img.regions {
		regions[r] = true
	}
	for i := range img.jobs {
		j := &img.jobs[i]
		if err := j.Validate(); err != nil {
			return fmt.Errorf("sched: state restore: %w", err)
		}
		if !regions[j.Origin] {
			return fmt.Errorf("sched: state restore: job %d origin %q has no cluster", j.ID, j.Origin)
		}
		if j.regionI < -1 || j.regionI >= len(img.regions) {
			return fmt.Errorf("sched: state restore: job %d region index %d out of range", j.ID, j.regionI)
		}
		if j.lastRun < -1 || j.lastRun > maxHour || j.doneAt > maxHour || j.waitHours > maxHour || j.migrations > maxHour {
			return fmt.Errorf("sched: state restore: job %d hour or counter out of range", j.ID)
		}
		if j.progress < 0 || j.progress > j.Length {
			return fmt.Errorf("sched: state restore: job %d progress %d outside length %d", j.ID, j.progress, j.Length)
		}
		if j.done != (j.progress == j.Length) {
			return fmt.Errorf("sched: state restore: job %d done flag inconsistent with progress", j.ID)
		}
		if j.progress > 0 && j.regionI < 0 {
			return fmt.Errorf("sched: state restore: job %d has progress but no region", j.ID)
		}
		// The record derives doneAt and waitHours, and a job no Step has
		// admitted has nowhere to keep progress: an image that disagrees
		// with what the record would rebuild cannot be held.
		if j.done && j.doneAt != j.lastRun+1 {
			return fmt.Errorf("sched: state restore: job %d done at hour %d, but last ran at hour %d", j.ID, j.doneAt, j.lastRun)
		}
		if !j.done && j.doneAt != 0 {
			return fmt.Errorf("sched: state restore: unfinished job %d has completion hour %d", j.ID, j.doneAt)
		}
		if j.Arrival > img.hour && (j.progress != 0 || j.lastRun != -1 || j.regionI != -1) {
			return fmt.Errorf("sched: state restore: job %d arrives at hour %d, after hour %d, but has run", j.ID, j.Arrival, img.hour)
		}
		if w := derivedWait(img.hour, j.Arrival, j.progress, j.doneAt, j.done); j.waitHours != w {
			return fmt.Errorf("sched: state restore: job %d waited %d hours, its other hours say %d", j.ID, j.waitHours, w)
		}
	}
	return nil
}

// checkFQ validates the image's fair-queue section before any fleet
// mutation, so the later Restore into the live queue cannot fail
// half-applied.
func (img *fleetImage) checkFQ(hasQueue bool) error {
	if !hasQueue && (len(img.fqNames) > 0 || img.fqVtime != 0) {
		return fmt.Errorf("sched: state restore: snapshot carries fair-queue state but the fleet has no fair queue")
	}
	if len(img.fqNames) != len(img.fqPasses) {
		return fmt.Errorf("sched: state restore: %d fair-queue names, %d passes", len(img.fqNames), len(img.fqPasses))
	}
	if img.fqVtime < 0 {
		return fmt.Errorf("sched: state restore: negative fair-queue vtime %d", img.fqVtime)
	}
	for i, name := range img.fqNames {
		if name == "" || !tenant.NameOK(name) {
			return fmt.Errorf("sched: state restore: bad fair-queue tenant %q", name)
		}
		if img.fqPasses[i] < 0 {
			return fmt.Errorf("sched: state restore: tenant %q negative pass %d", name, img.fqPasses[i])
		}
	}
	return nil
}

// --- Fleet ---

// Marshal serializes the fleet's complete state — every job's runtime
// bookkeeping plus the hour and aggregates — into the versioned,
// CRC-protected binary image documented at the top of this file. The
// output is deterministic for a given state. Jobs are encoded straight
// from the store, with no intermediate copy. Safe to call concurrently
// with Submit/Lookup/Stats.
func (f *Fleet) Marshal() ([]byte, error) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	v, n := f.view()
	img := &fleetImage{
		policy:           f.policy.Name(),
		horizon:          f.horizon,
		hour:             f.hour,
		regions:          f.regionsList,
		slots:            f.slotsByIdx,
		slotHours:        f.slotHours,
		emissionsOrdered: f.emissionsG,
		tenancyFP:        f.fq.Fingerprint(),
	}
	img.fqVtime, img.fqNames, img.fqPasses = f.fq.Snapshot()
	e := img.encodeHeader(int(n))
	var info JobInfo
	for seq := uint32(0); seq < n; seq++ {
		r := v.read(seq, &info)
		e.job(&jobImage{
			Job:        info.Job,
			progress:   info.Length - info.Remaining,
			regionI:    int(r.regionI),
			lastRun:    int(r.lastRun),
			done:       info.Completed,
			doneAt:     info.CompletedAt,
			waitHours:  info.WaitHours,
			migrations: info.Migrations,
			emissions:  info.Emissions,
		})
	}
	return e.finish(), nil
}

// Unmarshal restores state serialized by Marshal into this fleet,
// replacing whatever it held: the job store, the active and pending
// lists, the deadline buckets, and every incremental counter
// are rebuilt so subsequent Steps are byte-identical to a fleet that
// never stopped. The fleet must have been constructed over the same
// world; a mismatch or a bad image is an error and leaves the fleet
// unchanged.
func (f *Fleet) Unmarshal(data []byte) error {
	img, err := decodeImage(data)
	if err != nil {
		return err
	}
	if uint64(len(img.jobs)) > math.MaxUint32 {
		return fmt.Errorf("sched: state restore: %d jobs, at most %d", len(img.jobs), uint32(math.MaxUint32))
	}
	if err := img.checkJobs(); err != nil {
		return err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := img.checkWorld(f.policy.Name(), f.horizon, f.regionsList, f.slotsByIdx, f.fq.Fingerprint()); err != nil {
		return err
	}
	if err := img.checkFQ(f.fq != nil); err != nil {
		return err
	}
	// Build the new store aside: indexing the ids, through the path
	// Submit takes (appendRec), is also the check that no two jobs share
	// one, the last thing that can refuse the image. Each block is frozen
	// as soon as it is full if every job in it is done, as Step would have
	// left it, so a restored store is as compact as the one it was taken
	// from and never holds more than one hot block of done jobs at a time.
	// The freeze re-sums emissions over this fleet's traces and keeps the
	// image's bits wherever they differ, so an image taken over other trace
	// values still marshals back to itself.
	st := newJobStore()
	st.blocks = make(recBlocks, 0, (len(img.jobs)+recBlock-1)/recBlock)
	for i := range img.jobs {
		j := &img.jobs[i]
		if _, dup := st.ids.get(st.blocks, j.ID); dup {
			return fmt.Errorf("sched: state restore: duplicate job id %d", j.ID)
		}
		seq := uint32(i)
		r := st.appendRec(seq, &j.Job, f.regionIdx[j.Origin])
		r.emissions = j.emissions
		r.lastRun = int32(j.lastRun)
		r.migrations = int32(j.migrations)
		r.regionI = int16(j.regionI)
		e := &st.blocks[seq/recBlock]
		if j.done {
			r.flags |= flagDone
		} else {
			e.open++
		}
		if seq%recBlock == recBlock-1 && e.open == 0 {
			e.frozen = freeze(e.hot, f.traces)
			e.hot = nil
		}
	}
	if f.fq != nil {
		if err := f.fq.Restore(img.fqVtime, img.fqNames, img.fqPasses); err != nil {
			return err
		}
	}
	f.idMu.Lock()
	defer f.idMu.Unlock()

	f.jobStore = st
	f.submitted.Store(int64(len(img.jobs)))
	f.hour = img.hour
	f.slotHours = img.slotHours
	f.emissionsG = img.emissionsOrdered
	f.buckets = make(map[int]int)
	f.completed, f.missedDone, f.overdueOpen, f.ranLast = 0, 0, 0, 0
	f.active = nil
	f.pending = make(map[int][]uint32)
	for seq := uint32(0); seq < uint32(len(img.jobs)); seq++ {
		r := f.blocks.rec(seq)
		if r.done() {
			f.completed++
			if r.doneAt() > r.deadline() {
				f.missedDone++
			}
			continue
		}
		// Unresolved: rebuild the deadline bookkeeping, then list the job
		// as active or, if it arrives later, in its arrival bucket.
		if d := r.deadline(); d > img.hour {
			f.buckets[d]++
		} else {
			f.overdueOpen++
		}
		if r.ranAt(img.hour) {
			f.ranLast++
		}
		if a := int(r.arrival); a > img.hour {
			f.pending[a] = append(f.pending[a], seq)
		} else {
			f.active = append(f.active, activeJob{seq: seq, progress: int32(img.jobs[seq].progress)})
		}
	}
	return nil
}

// --- job batch codec (journal admit records) ---

// EncodeJobs appends a deterministic binary encoding of the job batch
// to buf: count, then per job id (zigzag) | origin | arrival | length
// | slack | flags | tenant (only when flag 8 is set). It is the
// payload format internal/schedd journals on admission; DecodeJobs
// reverses it. Tenant-free batches encode byte-identically to the
// pre-tenancy format, so old journals replay unchanged and new
// journals without tenants stay readable by the old decoder.
func EncodeJobs(buf []byte, jobs []Job) []byte {
	e := frame.Enc{Buf: buf}
	e.Int(len(jobs))
	for i := range jobs {
		e.Buf = appendJob(e.Buf, &jobs[i], 0)
	}
	return e.Buf
}

// DecodeJobs decodes a batch written by EncodeJobs and returns the
// jobs plus any unconsumed suffix of data. It never panics on
// malformed input.
func DecodeJobs(data []byte) (jobs []Job, rest []byte, err error) {
	d := frame.Dec{Data: data}
	for i, n := 0, d.Count(); i < n && d.Err == nil; i++ {
		j, _ := decodeJob(&d)
		jobs = append(jobs, j)
	}
	if d.Err != nil {
		return nil, nil, fmt.Errorf("sched: job batch decode: %w", d.Err)
	}
	return jobs, d.Rest(), nil
}
