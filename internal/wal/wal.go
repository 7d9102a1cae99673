// Package wal is the durability layer under the online scheduler: an
// append-only, checksummed write-ahead journal plus an atomic snapshot
// store, generation-numbered so a crashed process can restore the
// latest full snapshot and replay the journal tail on top of it.
//
// The journal file is a fixed header (magic + format version) followed
// by length-prefixed records, each carrying a CRC-32 of its payload:
//
//	"CSWL" | version 1
//	[ len uint32 BE | crc32(payload) uint32 BE | payload ]...
//
// The record layout, its reader and the short / corrupt / oversize
// taxonomy are internal/frame's; this package decides what each of
// those means for a journal, in its one reader (segment.go):
// SegmentReader.Next, which Replay runs from the header on.
//
// Appends are buffered and group-committed: in SyncAlways mode every
// Append blocks until its record is fsynced, but concurrent appenders
// share one fsync (the classic group commit), so a loaded server pays
// roughly one disk flush per batch rather than per record. SyncBatch
// trades a bounded loss window for throughput: a background flusher
// fsyncs on a short interval and Append never waits. SyncNone leaves
// flushing to the OS entirely (tests, benchmarks).
//
// Replay tolerates torn tails by construction: a crash mid-write
// leaves a record whose length prefix overruns the file or whose CRC
// does not match, and a power cut can leave a zero-filled tail (the
// file's length reached the disk, its data did not) that reads as a
// zero-length record, which no append writes. Replay stops at any of
// them, reporting how many bytes were valid so the caller can discard
// the tail. Corruption never panics and never yields a partial record.
//
// Observability: Options.Metrics accepts a JournalMetrics (metrics.go)
// that meters every append and fsync — wal_fsync_seconds and
// wal_fsync_batch_records histograms, record/byte counters — exposed
// by the embedding server's /metrics. The fsync timing wraps the
// actual f.Sync() call in both sync modes, and batch size is the
// count of records a flush made newly durable, so the histogram pair
// reads as "how long did durability take, and how many acks shared
// it". See docs/OBSERVABILITY.md for the family reference.
package wal

import (
	"bufio"
	"fmt"
	"os"
	"slices"
	"strings"
	"sync"
	"time"

	"carbonshift/internal/frame"
	"carbonshift/internal/tracing"
)

// Journal file format constants.
const (
	journalMagic   = "CSWL"
	journalVersion = 1
	// HeaderLen is the size of the journal file header.
	HeaderLen = len(journalMagic) + 1
	// recordHeaderLen prefixes every record: 4 length + 4 CRC bytes.
	recordHeaderLen = frame.HeaderLen
	// MaxRecord bounds a single record so a corrupt length prefix can
	// never drive a huge allocation during replay.
	MaxRecord = 64 << 20
)

// SyncMode selects the journal's fsync discipline.
type SyncMode int

const (
	// SyncBatch (the default) fsyncs from a background flusher every
	// DefaultBatchInterval: appends never block on the disk, and a
	// crash loses at most one interval of acknowledged records.
	SyncBatch SyncMode = iota
	// SyncAlways group-commits: every Append returns only after its
	// record is fsynced, with concurrent appenders sharing one flush.
	SyncAlways
	// SyncNone never fsyncs; data reaches disk when the OS decides or
	// on Close.
	SyncNone
)

// syncModeNames spells each SyncMode, indexed by it: String,
// ParseSyncMode and its error all read it.
var syncModeNames = [...]string{SyncBatch: "batch", SyncAlways: "always", SyncNone: "none"}

func (m SyncMode) String() string {
	if m >= 0 && int(m) < len(syncModeNames) {
		return syncModeNames[m]
	}
	return fmt.Sprintf("SyncMode(%d)", int(m))
}

// ParseSyncMode maps the -fsync flag spellings to a SyncMode.
func ParseSyncMode(s string) (SyncMode, error) {
	if i := slices.Index(syncModeNames[:], strings.ToLower(s)); i >= 0 {
		return SyncMode(i), nil
	}
	return 0, fmt.Errorf("wal: unknown sync mode %q (have %s)", s, strings.Join(syncModeNames[:], ", "))
}

// DefaultBatchInterval is the SyncBatch flush cadence.
const DefaultBatchInterval = 2 * time.Millisecond

// Options configures a Journal.
type Options struct {
	// Sync is the fsync discipline (default SyncBatch).
	Sync SyncMode
	// Metrics, when non-nil, receives fsync latency, group-commit
	// batch size, and append counters (see JournalMetrics). Safe to
	// share across journals — schedd reuses one across generations.
	Metrics *JournalMetrics
	// Trace, when non-nil, records each fsync round as a
	// "wal.group_commit" root trace (head-sampled, always on slow) with
	// the batch size — the fsync serves many requests at once, so it is
	// its own trace rather than a child of any one request; the
	// per-request durability cost shows up as that request's
	// wal.fsync_wait span instead.
	Trace *tracing.Tracer
}

// Journal is an append-only record log. Append, AppendNoWait,
// WaitSynced, and Sync are safe for concurrent use, and Close is
// idempotent; callers should stop appending before Close — a record
// appended concurrently with Close may miss the final flush.
type Journal struct {
	mu     sync.Mutex
	cond   *sync.Cond // signaled when a group commit completes
	f      *os.File
	w      *bufio.Writer
	mode   SyncMode
	err    error // first write/sync failure; poisons the journal
	closed bool

	// Fsync-round state: seq counts appended records, synced the highest
	// fsynced one, syncing marks a round in flight (flushRoundLocked) —
	// the elected group-commit flusher under SyncAlways, the flusher
	// tick under SyncBatch, or a Sync() in any mode.
	seq     uint64
	synced  uint64
	syncing bool

	// metrics instruments the journal (nil = un-metered); obsSeq is the
	// highest record sequence whose durability has been observed into
	// the batch-size histogram. trace records fsync rounds (nil =
	// untraced).
	metrics *JournalMetrics
	trace   *tracing.Tracer
	obsSeq  uint64

	// SyncBatch state.
	dirty bool
	stop  chan struct{}
	done  chan struct{}

	closeOnce sync.Once
	closeErr  error
}

// Create creates (or truncates) a journal file and writes its header.
// The header reaches the disk with the first synced record. A sync mode
// other than the three is refused before the file is touched: it would
// start no flusher and make WaitSynced return at once.
func Create(path string, opts Options) (*Journal, error) {
	if opts.Sync < SyncBatch || opts.Sync > SyncNone {
		return nil, fmt.Errorf("wal: unknown sync mode %v", opts.Sync)
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: create journal: %w", err)
	}
	j := &Journal{
		f:       f,
		w:       bufio.NewWriterSize(f, 1<<16),
		mode:    opts.Sync,
		metrics: opts.Metrics,
		trace:   opts.Trace,
	}
	j.cond = sync.NewCond(&j.mu)
	j.w.WriteString(journalMagic)
	j.w.WriteByte(journalVersion)
	if j.mode == SyncBatch {
		j.stop = make(chan struct{})
		j.done = make(chan struct{})
		go j.flusher()
	}
	return j, nil
}

// flusher is the SyncBatch background goroutine: every
// DefaultBatchInterval it runs one flush+fsync round if anything was
// appended since the last pass. A tick that finds a Sync() round in
// flight leaves dirty set for the next one.
func (j *Journal) flusher() {
	defer close(j.done)
	tick := time.NewTicker(DefaultBatchInterval)
	defer tick.Stop()
	for {
		select {
		case <-j.stop:
			return
		case <-tick.C:
			j.mu.Lock()
			if j.dirty && j.err == nil && !j.closed && !j.syncing {
				j.dirty = false
				j.flushRoundLocked()
			}
			j.mu.Unlock()
		}
	}
}

// Append writes one record. In SyncAlways mode it returns once the
// record is durable (sharing the fsync with concurrent appenders); in
// the other modes it returns as soon as the record is buffered. A
// previous write or sync failure poisons the journal and is returned
// from every subsequent call.
func (j *Journal) Append(payload []byte) error {
	seq, err := j.AppendNoWait(payload)
	if err != nil {
		return err
	}
	return j.WaitSynced(seq)
}

// AppendNoWait buffers one record and returns its sequence number
// without waiting for durability, so a caller holding a lock that
// serializes appends (and thereby fixes the record order) can release
// it before blocking in WaitSynced — that is what lets concurrent
// callers actually share a group commit.
func (j *Journal) AppendNoWait(payload []byte) (uint64, error) {
	return j.AppendBatchNoWait(payload)
}

// AppendBatchNoWait buffers every payload as its own record under one
// lock acquisition and returns the sequence number of the last, so a
// caller appending a logically atomic group of records pays one
// critical section and covers the whole group with a single
// WaitSynced. The records land contiguously — no concurrent append can
// interleave with them.
func (j *Journal) AppendBatchNoWait(payloads ...[]byte) (uint64, error) {
	if len(payloads) == 0 {
		return 0, fmt.Errorf("wal: empty append batch")
	}
	for _, p := range payloads {
		if len(p) == 0 {
			// Readers take a zero-length record for a zero-filled tail.
			return 0, fmt.Errorf("wal: empty record")
		}
		if len(p) > MaxRecord {
			return 0, fmt.Errorf("wal: record of %d bytes exceeds limit %d", len(p), MaxRecord)
		}
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return 0, fmt.Errorf("wal: journal closed")
	}
	if j.err != nil {
		return 0, j.err
	}
	for _, payload := range payloads {
		var hdr [recordHeaderLen]byte
		frame.PutHeader(hdr[:], payload)
		if _, err := j.w.Write(hdr[:]); err != nil {
			j.err = err
			return 0, err
		}
		if _, err := j.w.Write(payload); err != nil {
			j.err = err
			return 0, err
		}
		j.seq++
		j.metrics.observeAppend(len(payload))
	}
	if j.mode == SyncBatch {
		j.dirty = true
	}
	return j.seq, nil
}

// WaitSynced blocks until the record with the given sequence number is
// durable under the journal's discipline: in SyncAlways mode it joins
// the group commit — whoever finds no flush in flight becomes the
// flusher for every record buffered so far, everyone else waits for a
// flush covering their record. In the other modes durability is
// asynchronous and WaitSynced only reports a prior journal failure.
func (j *Journal) WaitSynced(seq uint64) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.mode != SyncAlways {
		return j.err
	}
	return j.syncTo(seq)
}

// syncTo is the group-commit loop: it returns once record seq my is
// fsynced. Called with mu held; temporarily releases it around the
// disk flush.
func (j *Journal) syncTo(my uint64) error {
	for j.synced < my {
		if j.err != nil {
			return j.err
		}
		if j.closed {
			return fmt.Errorf("wal: journal closed before record %d was synced", my)
		}
		if !j.syncing {
			j.flushRoundLocked()
		} else {
			j.cond.Wait()
		}
	}
	return j.err
}

// flushRoundLocked runs one flush+fsync round covering every record
// buffered so far. Called with mu held (and j.syncing false);
// temporarily releases mu around the fsync.
func (j *Journal) flushRoundLocked() {
	j.syncing = true
	target := j.seq
	batch := target - j.obsSeq
	err := j.w.Flush()
	j.mu.Unlock()
	start := time.Now()
	if err == nil {
		err = j.f.Sync()
	}
	j.mu.Lock()
	if err != nil && j.err == nil {
		j.err = err
	}
	if err == nil {
		if j.synced < target {
			j.synced = target
		}
		if target > j.obsSeq {
			j.obsSeq = target
		}
		j.metrics.observeFsync(start, batch)
		j.trace.RecordRoot("wal.group_commit", start, time.Since(start),
			tracing.Int("batch", int(batch)))
	}
	j.syncing = false
	j.cond.Broadcast()
}

// Flush pushes buffered records out of the in-process buffer into the
// OS file without forcing them to disk — it makes appended records
// visible to readers of the file (the replication source tails the
// live journal this way) without paying an fsync. A closed journal is
// already fully flushed, so Flush on it is a no-op.
func (j *Journal) Flush() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil || j.closed {
		return j.err
	}
	if err := j.w.Flush(); err != nil {
		j.err = err
		return err
	}
	return nil
}

// Sync flushes buffered records (and the header, even when no record
// was ever appended) and fsyncs, regardless of mode.
func (j *Journal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return fmt.Errorf("wal: journal closed")
	}
	j.dirty = false
	for j.syncing && j.err == nil {
		j.cond.Wait()
	}
	if j.err != nil {
		return j.err
	}
	j.flushRoundLocked()
	return j.err
}

// Close flushes, fsyncs, and closes the journal. Idempotent and safe
// to call concurrently.
func (j *Journal) Close() error {
	j.closeOnce.Do(func() {
		if j.stop != nil {
			close(j.stop)
			<-j.done
		}
		err := j.Sync()
		j.mu.Lock()
		j.closed = true
		j.cond.Broadcast()
		j.mu.Unlock()
		if cerr := j.f.Close(); err == nil {
			err = cerr
		}
		j.closeErr = err
	})
	return j.closeErr
}
