package sched

// Fleet state serialization: a versioned, deterministic binary image of
// everything a ShardedFleet has accumulated — the submitted jobs with
// their full runtime bookkeeping, the current hour, and the
// order-sensitive float aggregates — restorable into a freshly
// constructed fleet over the same world, at any shard count. internal/schedd snapshots this
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

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"

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

// --- binary writer/reader ---

type stateEnc struct{ buf []byte }

func (e *stateEnc) uvarint(v int) { e.buf = binary.AppendUvarint(e.buf, uint64(v)) }
func (e *stateEnc) zigzag(v int)  { e.buf = binary.AppendVarint(e.buf, int64(v)) }
func (e *stateEnc) str(s string)  { e.uvarint(len(s)); e.buf = append(e.buf, s...) }
func (e *stateEnc) byte(b byte)   { e.buf = append(e.buf, b) }
func (e *stateEnc) float(f float64) {
	e.buf = binary.BigEndian.AppendUint64(e.buf, math.Float64bits(f))
}

type stateDec struct {
	data []byte
	err  error
}

func (d *stateDec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("sched: state decode: "+format, args...)
	}
}

func (d *stateDec) uvarint() int {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.data)
	if n <= 0 || v > math.MaxInt64 {
		d.fail("bad uvarint")
		return 0
	}
	d.data = d.data[n:]
	return int(v)
}

func (d *stateDec) zigzag() int {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.data)
	if n <= 0 {
		d.fail("bad varint")
		return 0
	}
	d.data = d.data[n:]
	return int(v)
}

func (d *stateDec) str() string {
	n := d.uvarint()
	if d.err != nil {
		return ""
	}
	if n < 0 || n > len(d.data) {
		d.fail("string length %d exceeds %d remaining bytes", n, len(d.data))
		return ""
	}
	s := string(d.data[:n])
	d.data = d.data[n:]
	return s
}

func (d *stateDec) byte() byte {
	if d.err != nil {
		return 0
	}
	if len(d.data) == 0 {
		d.fail("unexpected end of input")
		return 0
	}
	b := d.data[0]
	d.data = d.data[1:]
	return b
}

func (d *stateDec) float() float64 {
	if d.err != nil {
		return 0
	}
	if len(d.data) < 8 {
		d.fail("unexpected end of input")
		return 0
	}
	f := math.Float64frombits(binary.BigEndian.Uint64(d.data))
	d.data = d.data[8:]
	return f
}

// --- image encode/decode ---

// encodeHeader starts an image: everything up to and including the job
// count. The caller appends exactly njobs jobs with stateEnc.job, in
// submission order, and closes the image with stateEnc.finish.
func (img *fleetImage) encodeHeader(njobs int) *stateEnc {
	e := &stateEnc{buf: make([]byte, 0, 64+njobs*48)}
	e.buf = append(e.buf, stateMagic...)
	e.byte(stateVersion)
	e.str(img.policy)
	e.uvarint(img.horizon)
	e.uvarint(img.hour)
	e.uvarint(len(img.regions))
	for i, r := range img.regions {
		e.str(r)
		e.uvarint(img.slots[i])
	}
	e.float(img.slotHours)
	e.float(img.emissionsOrdered)
	e.str(img.tenancyFP)
	e.uvarint(int(img.fqVtime))
	e.uvarint(len(img.fqNames))
	for i, name := range img.fqNames {
		e.str(name)
		e.uvarint(int(img.fqPasses[i]))
	}
	e.uvarint(njobs)
	return e
}

// job appends one job's serialized state.
func (e *stateEnc) job(j *jobImage) {
	e.zigzag(j.ID)
	e.str(j.Origin)
	e.uvarint(j.Arrival)
	e.uvarint(j.Length)
	e.uvarint(j.Slack)
	var flags byte
	if j.Interruptible {
		flags |= flagInterruptible
	}
	if j.Migratable {
		flags |= flagMigratable
	}
	if j.done {
		flags |= flagDone
	}
	if j.Tenant != "" {
		flags |= flagHasTenant
	}
	e.byte(flags)
	if j.Tenant != "" {
		e.str(j.Tenant)
	}
	e.uvarint(j.progress)
	e.zigzag(j.regionI)
	e.zigzag(j.lastRun)
	e.uvarint(j.doneAt)
	e.uvarint(j.waitHours)
	e.uvarint(j.migrations)
	e.float(j.emissions)
}

// finish seals the image with its CRC.
func (e *stateEnc) finish() []byte {
	return binary.BigEndian.AppendUint32(e.buf, crc32.ChecksumIEEE(e.buf))
}

func decodeImage(data []byte) (*fleetImage, error) {
	if len(data) < len(stateMagic)+1+4 {
		return nil, fmt.Errorf("sched: state decode: %d bytes is too short", len(data))
	}
	body, sum := data[:len(data)-4], binary.BigEndian.Uint32(data[len(data)-4:])
	if got := crc32.ChecksumIEEE(body); got != sum {
		return nil, fmt.Errorf("sched: state decode: CRC mismatch (got %08x, want %08x)", got, sum)
	}
	if string(body[:len(stateMagic)]) != stateMagic {
		return nil, fmt.Errorf("sched: state decode: bad magic %q", body[:len(stateMagic)])
	}
	ver := body[len(stateMagic)]
	if ver != stateVersion && ver != stateVersionV1 {
		return nil, fmt.Errorf("sched: state decode: unsupported version %d (want %d or %d)", ver, stateVersionV1, stateVersion)
	}
	d := &stateDec{data: body[len(stateMagic)+1:]}
	img := &fleetImage{}
	img.policy = d.str()
	img.horizon = d.uvarint()
	img.hour = d.uvarint()
	nr := d.uvarint()
	if d.err == nil && nr > len(d.data) {
		d.fail("region count %d exceeds input", nr)
	}
	for i := 0; i < nr && d.err == nil; i++ {
		img.regions = append(img.regions, d.str())
		img.slots = append(img.slots, d.uvarint())
	}
	img.slotHours = d.float()
	img.emissionsOrdered = d.float()
	if ver >= 2 {
		img.tenancyFP = d.str()
		img.fqVtime = int64(d.uvarint())
		np := d.uvarint()
		if d.err == nil && np > len(d.data) {
			d.fail("pass count %d exceeds input", np)
		}
		for i := 0; i < np && d.err == nil; i++ {
			img.fqNames = append(img.fqNames, d.str())
			img.fqPasses = append(img.fqPasses, int64(d.uvarint()))
		}
	}
	nj := d.uvarint()
	if d.err == nil && nj > len(d.data) {
		d.fail("job count %d exceeds input", nj)
	}
	for i := 0; i < nj && d.err == nil; i++ {
		var j jobImage
		j.ID = d.zigzag()
		j.Origin = d.str()
		j.Arrival = d.uvarint()
		j.Length = d.uvarint()
		j.Slack = d.uvarint()
		flags := d.byte()
		j.Interruptible = flags&flagInterruptible != 0
		j.Migratable = flags&flagMigratable != 0
		j.done = flags&flagDone != 0
		if flags&flagHasTenant != 0 {
			if ver < 2 {
				d.fail("job %d carries a tenant in a version-1 image", j.ID)
			}
			j.Tenant = d.str()
		}
		j.progress = d.uvarint()
		j.regionI = d.zigzag()
		j.lastRun = d.zigzag()
		j.doneAt = d.uvarint()
		j.waitHours = d.uvarint()
		j.migrations = d.uvarint()
		j.emissions = d.float()
		img.jobs = append(img.jobs, j)
	}
	if d.err != nil {
		return nil, d.err
	}
	if len(d.data) != 0 {
		return nil, fmt.Errorf("sched: state decode: %d trailing bytes", len(d.data))
	}
	return img, nil
}

// checkWorld verifies the image was taken from the same scheduling
// world as the restoring fleet: policy, horizon, the exact region and
// slot configuration, and the tenancy fingerprint — a snapshot taken
// under one fair-share configuration restored into another would
// silently diverge placements.
func (img *fleetImage) checkWorld(policy string, horizon int, regions []string, slots map[string]int, tenancyFP string) error {
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
		if img.slots[i] != slots[r] {
			return fmt.Errorf("sched: state restore: region %s snapshot slots %d, fleet has %d", r, img.slots[i], slots[r])
		}
	}
	return nil
}

// checkJobs validates every decoded job against the image's own world
// (which checkWorld ties to the restoring fleet's), so a
// corrupted-but-checksummed image cannot index out of bounds, name a
// region the fleet does not have, or carry an hour or counter the
// sharded fleet's 32-bit record would truncate.
func (img *fleetImage) checkJobs() error {
	regions := make(map[string]bool, len(img.regions))
	for _, r := range img.regions {
		regions[r] = true
	}
	seen := make(map[int]bool, len(img.jobs))
	for i := range img.jobs {
		j := &img.jobs[i]
		if err := j.Validate(); err != nil {
			return fmt.Errorf("sched: state restore: %w", err)
		}
		if seen[j.ID] {
			return fmt.Errorf("sched: state restore: duplicate job id %d", j.ID)
		}
		seen[j.ID] = true
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

// --- ShardedFleet ---

// Marshal serializes the fleet's complete state — every job's runtime
// bookkeeping plus the hour and aggregates — into the versioned,
// CRC-protected binary image documented at the top of this file. The
// output is deterministic for a given state and independent of the shard
// count. Jobs are encoded straight from the store, with no intermediate
// copy. Safe to call concurrently with Submit/Lookup/Stats.
func (f *ShardedFleet) Marshal() ([]byte, error) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	blocks, tenants, n := f.view()
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
	for seq := uint32(0); seq < n; seq++ {
		r := blocks.at(seq)
		e.job(&jobImage{
			Job:        f.job(r, tenants),
			progress:   int(r.progress),
			regionI:    int(r.regionI),
			lastRun:    int(r.lastRun),
			done:       r.done(),
			doneAt:     int(r.doneAt),
			waitHours:  int(r.waitHours),
			migrations: int(r.migrations),
			emissions:  r.emissions,
		})
	}
	return e.finish(), nil
}

// Unmarshal restores state serialized by Marshal into this fleet,
// replacing whatever it held: the job store, the per-shard active and
// pending lists, the deadline buckets, and every incremental counter
// are rebuilt so subsequent Steps are byte-identical to a fleet that
// never stopped. The fleet must have been constructed over the same
// world; a mismatch is an error and leaves the fleet unchanged.
func (f *ShardedFleet) Unmarshal(data []byte) error {
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
	if err := img.checkWorld(f.policy.Name(), f.horizon, f.regionsList, f.slots, f.fq.Fingerprint()); err != nil {
		return err
	}
	if err := img.checkFQ(f.fq != nil); err != nil {
		return err
	}
	if f.fq != nil {
		if err := f.fq.Restore(img.fqVtime, img.fqNames, img.fqPasses); err != nil {
			return err
		}
	}
	f.idMu.Lock()
	defer f.idMu.Unlock()

	f.hour = img.hour
	f.slotHours = img.slotHours
	f.emissionsG = img.emissionsOrdered
	f.byID = make(map[int]uint32, len(img.jobs))
	f.blocks = make(recBlocks, 0, (len(img.jobs)+recBlock-1)/recBlock)
	f.resetTenants()
	f.buckets = make(map[int]int)
	f.completed, f.missedDone, f.overdueOpen, f.ranLast = 0, 0, 0, 0
	for _, sh := range f.shards {
		sh.active = nil
		sh.pending = make(map[int][]uint32)
	}
	for i := range img.jobs {
		j := &img.jobs[i]
		seq := uint32(i)
		r := f.appendRec(seq, &j.Job)
		r.emissions = j.emissions
		r.progress = int32(j.progress)
		r.lastRun = int32(j.lastRun)
		r.doneAt = int32(j.doneAt)
		r.waitHours = int32(j.waitHours)
		r.migrations = int32(j.migrations)
		r.regionI = int16(j.regionI)
		f.byID[j.ID] = seq
		if j.done {
			r.flags |= flagDone
			f.completed++
			if j.doneAt > j.Deadline() {
				f.missedDone++
			}
			continue
		}
		// Unresolved: rebuild the deadline bookkeeping and the shard
		// placement invariant — an active job lives in the shard of its
		// current region (origin if it never ran), a future arrival
		// waits in its origin shard's arrival bucket.
		if d := j.Deadline(); d > img.hour {
			f.buckets[d]++
		} else {
			f.overdueOpen++
		}
		if r.ranAt(img.hour) {
			f.ranLast++
		}
		homeI := r.originI
		if r.regionI >= 0 {
			homeI = r.regionI
		}
		sh := f.shards[f.shardOf[homeI]]
		if j.Arrival > img.hour {
			sh.pending[j.Arrival] = append(sh.pending[j.Arrival], seq)
		} else {
			sh.active = append(sh.active, seq)
		}
	}
	f.submitted.Store(int64(len(img.jobs)))
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
	e := &stateEnc{buf: buf}
	e.uvarint(len(jobs))
	for _, j := range jobs {
		e.zigzag(j.ID)
		e.str(j.Origin)
		e.uvarint(j.Arrival)
		e.uvarint(j.Length)
		e.uvarint(j.Slack)
		var flags byte
		if j.Interruptible {
			flags |= flagInterruptible
		}
		if j.Migratable {
			flags |= flagMigratable
		}
		if j.Tenant != "" {
			flags |= flagHasTenant
		}
		e.byte(flags)
		if j.Tenant != "" {
			e.str(j.Tenant)
		}
	}
	return e.buf
}

// DecodeJobs decodes a batch written by EncodeJobs and returns the
// jobs plus any unconsumed suffix of data. It never panics on
// malformed input.
func DecodeJobs(data []byte) (jobs []Job, rest []byte, err error) {
	d := &stateDec{data: data}
	n := d.uvarint()
	if d.err == nil && n > len(data) {
		d.fail("job count %d exceeds input", n)
	}
	for i := 0; i < n && d.err == nil; i++ {
		var j Job
		j.ID = d.zigzag()
		j.Origin = d.str()
		j.Arrival = d.uvarint()
		j.Length = d.uvarint()
		j.Slack = d.uvarint()
		flags := d.byte()
		j.Interruptible = flags&flagInterruptible != 0
		j.Migratable = flags&flagMigratable != 0
		if flags&flagHasTenant != 0 {
			j.Tenant = d.str()
		}
		jobs = append(jobs, j)
	}
	if d.err != nil {
		return nil, nil, d.err
	}
	return jobs, d.data, nil
}
