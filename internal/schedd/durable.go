package schedd

// The durability layer: when Config.DataDir is set, every state-
// changing fleet event is journaled through internal/wal and the full
// fleet image is snapshotted periodically, so a crashed or restarted
// schedd recovers to state byte-identical to one that never stopped.
//
// Two record types cover everything, because fleet stepping is
// deterministic given the trace, policy, and prior state:
//
//	admit     the admitted batch (with stamped arrival hour and the
//	          post-assignment auto-id counter), appended under admitMu
//	          — so journal order IS fleet submission order;
//	watermark the hour the fleet advanced to, appended under stepMu.
//
// Both record types are buffered under admitMu (admits hold it for
// the whole admission critical section; a watermark takes it just for
// the buffer append), so journal order IS fleet-event order: an admit
// stamped h holds admitMu from SubmitNow through its append, and the
// watermark for any step past h needs admitMu after that step. Every
// reader therefore applies the journal strictly in sequence, through
// the one dispatcher below (apply): boot recovery feeds it from the
// local file, a replication follower from the primary's stream
// (internal/repl), and both stay byte-identical to a server that never
// stopped. Journals written before watermarks took admitMu are not
// read (DESIGN.md, "Formats").
//
// Boot is openStore → restore + replay → takeAuthority; promotion of a
// follower is the same openStore → takeAuthority over state the stream
// already built (repl.go). takeAuthority rotates — a fresh snapshot of
// the current state and an empty next-generation journal — so replay
// cost is bounded by one generation regardless of crash history.

import (
	"errors"
	"fmt"
	"os"

	"carbonshift/internal/frame"
	"carbonshift/internal/repl"
	"carbonshift/internal/sched"
	"carbonshift/internal/tracing"
	"carbonshift/internal/wal"
)

// Journal record types.
const (
	recAdmit     = 1
	recWatermark = 2
)

// DurabilityStats is the /v1/stats view of the journaling layer.
type DurabilityStats struct {
	// Generation is the live snapshot+journal generation.
	Generation uint64 `json:"generation"`
	// LastSnapshotHour is the fleet hour of the newest snapshot.
	LastSnapshotHour int `json:"last_snapshot_hour"`
	// Recovered reports that boot restored a previous incarnation's
	// state; the remaining fields describe that recovery.
	Recovered             bool `json:"recovered"`
	RecoveredSnapshotHour int  `json:"recovered_snapshot_hour"`
	ReplayedRecords       int  `json:"replayed_records"`
	RecoveredJobs         int  `json:"recovered_jobs"`
	// TornTail reports that the recovered journal ended in a torn or
	// corrupt write (the expected signature of a hard crash) which was
	// discarded.
	TornTail bool `json:"torn_tail"`
}

// openDurable is boot for a server with a DataDir: recover whatever a
// previous incarnation left there into the fleet, then take authority
// over the directory. Called from New after options are applied (so a
// recorder observes replayed placements exactly as it would live ones).
func (s *Server) openDurable() error {
	store, gen, payload, err := s.openStore()
	if err != nil {
		return err
	}
	var rec DurabilityStats
	if gen > 0 {
		// Any failure before takeAuthority owns the store must release the
		// directory lock so the operator can retry in-process.
		fail := func(what string, err error) error {
			store.Close()
			return fmt.Errorf("schedd: %s: %w", what, err)
		}
		if err := s.restore(payload); err != nil {
			return fail("recover "+store.SnapshotPath(gen), err)
		}
		rec.Recovered = true
		rec.RecoveredSnapshotHour = s.fleet.Hour()
		// The generation's journal tail on top; a journal that was never
		// created (a crash between snapshot and journal) is an empty one.
		path := store.JournalPath(gen)
		replay, err := wal.Replay(path, func(payload []byte) error {
			_, err := s.apply(payload)
			return err
		})
		if err != nil && !os.IsNotExist(err) {
			return fail("replay "+path, err)
		}
		rec.ReplayedRecords = replay.Records
		rec.TornTail = replay.Truncated
		rec.RecoveredJobs = s.fleet.Jobs()
	}
	s.recovery.Store(&rec)
	if err := s.takeAuthority(store, gen); err != nil {
		return err
	}
	// Quota windows continue where the recovered incarnation stopped.
	s.resetGate()
	return nil
}

// openStore claims cfg.DataDir under its exclusive flock and reads the
// newest valid snapshot (generation 0: the directory holds none). A
// directory whose snapshots are all unreadable is an error, never an
// empty start — booting or promoting over it would bury an operator's
// only copy of acknowledged state.
func (s *Server) openStore() (*wal.Store, uint64, []byte, error) {
	store, err := wal.OpenStore(s.cfg.DataDir)
	if err != nil {
		return nil, 0, nil, err
	}
	gen, payload, err := store.LatestSnapshot()
	if err != nil {
		store.Close()
		return nil, 0, nil, fmt.Errorf("schedd: open %s: %w", s.cfg.DataDir, err)
	}
	return store, gen, payload, nil
}

// takeAuthority makes the server the journaling primary of store: the
// in-memory state — recovered at boot, replicated before a promotion —
// is snapshotted as the generation after gen, the newest the directory
// holds, and everything older is garbage-collected. Only then are the
// source and the store published, so a handler that sees the store
// finds a snapshot on disk and the source installed. On failure the
// directory lock is released.
func (s *Server) takeAuthority(store *wal.Store, gen uint64) error {
	if err := s.rotateGeneration(store, gen+1); err != nil {
		store.Close()
		return err
	}
	s.source = repl.NewSource(store, s.Hour)
	s.store.Store(store)
	return nil
}

// restore replaces the server's whole state with a snapshot payload:
// boot's local snapshot or a follower's bootstrap.
func (s *Server) restore(payload []byte) error {
	nextID, fleetImg, err := decodeServerSnapshot(payload)
	if err != nil {
		return err
	}
	if err := s.fleet.Unmarshal(fleetImg); err != nil {
		return err
	}
	s.nextID = nextID
	s.known.Store(int64(s.fleet.Hour()))
	return nil
}

// applied is what one journal record did, for the follower's wrapper
// (ApplyReplRecord) to trace and report.
type applied struct {
	hour  int             // the watermark, or the admit's arrival hour
	jobs  int             // jobs admitted
	trace tracing.TraceID // an admit's sampled trace, usually zero
}

// apply is the one journal-record dispatcher, called strictly in
// journal order: an admit steps the fleet to its stamped arrival hour,
// submits the batch and restores the id counter; a watermark steps the
// fleet to its hour. Recovery and the replication follower both replay
// through it, so a recovered primary and its standby cannot diverge.
func (s *Server) apply(payload []byte) (applied, error) {
	if len(payload) == 0 {
		return applied{}, errors.New("empty record")
	}
	var a applied
	switch payload[0] {
	case recAdmit:
		arrival, next, jobs, tid, err := decodeAdmit(payload)
		if err != nil {
			return a, err
		}
		if err := s.stepFleetTo(arrival); err != nil {
			return a, err
		}
		if err := s.fleet.Submit(jobs...); err != nil {
			return a, err
		}
		s.nextID = next
		a = applied{hour: arrival, jobs: len(jobs), trace: tid}
	case recWatermark:
		hour, err := decodeWatermark(payload)
		if err != nil {
			return a, err
		}
		if err := s.stepFleetTo(hour); err != nil {
			return a, err
		}
		a = applied{hour: hour}
	default:
		return a, fmt.Errorf("unknown journal record type %d", payload[0])
	}
	if h := int64(s.fleet.Hour()); h > s.known.Load() {
		s.known.Store(h)
	}
	return a, nil
}

// stepFleetTo steps the fleet up to the given hour during replay.
func (s *Server) stepFleetTo(hour int) error {
	for s.fleet.Hour() < hour {
		if err := s.fleet.Step(); err != nil {
			return err
		}
	}
	return nil
}

// rotateGeneration snapshots the current state as generation gen and
// makes it live (wal.Store.Rotate). Callers must exclude concurrent
// admissions and steps (boot does trivially; live rotation holds
// stepMu and admitMu).
func (s *Server) rotateGeneration(store *wal.Store, gen uint64) error {
	fleetImg, err := s.fleet.Marshal()
	if err != nil {
		return err
	}
	// One JournalMetrics spans generation rotations: wal_* series are
	// cumulative over the server's life, not per journal file.
	opts := wal.Options{Sync: s.cfg.Sync, Trace: s.tr, Metrics: s.mx.wal}
	if err := store.Rotate(gen, encodeServerSnapshot(s.nextID, fleetImg), opts); err != nil {
		return err
	}
	s.lastSnapHour.Store(int64(s.fleet.Hour()))
	return nil
}

// maybeSnapshot rotates the generation once the fleet has progressed
// SnapshotEvery hours past the last snapshot. Called under stepMu; it
// takes admitMu to freeze admissions across the snapshot/journal swap.
func (s *Server) maybeSnapshot() error {
	store := s.store.Load()
	if store == nil || s.cfg.SnapshotEvery <= 0 {
		return nil
	}
	if s.fleet.Hour()-int(s.lastSnapHour.Load()) < s.cfg.SnapshotEvery {
		return nil
	}
	s.admitMu.Lock()
	defer s.admitMu.Unlock()
	return s.rotateGeneration(store, store.Generation()+1)
}

// journalAdmit buffers one admission record for the batch and returns
// the journal plus the record's sequence number; the caller
// acknowledges only after WaitSynced on that pair. Must be called under
// admitMu, after SubmitNow stamped the batch's arrival hours —
// buffering under admitMu fixes the record order, while the durability
// wait happens after the lock is released so concurrent submitters
// share one group-commit fsync. No batch a request body can carry makes
// a record past wal.MaxRecord (TestAdmitRecordFitsMaxRecord).
func (s *Server) journalAdmit(arrival, nextID int, jobs []sched.Job, tid tracing.TraceID) (*wal.Journal, uint64, error) {
	j := s.liveJournal()
	if j == nil {
		return nil, 0, nil
	}
	seq, err := j.AppendNoWait(encodeAdmit(arrival, nextID, jobs, tid))
	return j, seq, err
}

// journalWatermark appends the hour the fleet advanced to. Must be
// called under stepMu; it takes admitMu just for the buffer append so
// watermark and admit records interleave in the journal in true
// fleet-event order — the invariant the replication follower's
// strictly-in-order apply relies on. The durability wait runs after
// admitMu is released, so admissions never stall behind a watermark
// fsync.
func (s *Server) journalWatermark(hour int) error {
	j := s.liveJournal()
	if j == nil {
		return nil
	}
	s.admitMu.Lock()
	seq, err := j.AppendNoWait(encodeWatermark(hour))
	s.admitMu.Unlock()
	if err != nil {
		return err
	}
	return j.WaitSynced(seq)
}

// liveJournal returns the current generation's journal (nil when the
// server runs without a DataDir).
func (s *Server) liveJournal() *wal.Journal {
	if store := s.store.Load(); store != nil {
		return store.Journal()
	}
	return nil
}

// Close ends replication for good (followers: no later Start or failed
// promotion restarts it), flushes and closes the journal, and releases
// the data directory's lock. The server must no longer be serving;
// idempotent, nil-safe without a DataDir.
func (s *Server) Close() error {
	s.role.Load().session.close()
	if store := s.store.Load(); store != nil {
		return store.Close()
	}
	return nil
}

// Recovery returns what boot restored from the data directory (the
// zero value when there was nothing to recover or no DataDir is set).
func (s *Server) Recovery() DurabilityStats {
	if r := s.recovery.Load(); r != nil {
		return *r
	}
	return DurabilityStats{}
}

// Hour returns the fleet's current replay hour.
func (s *Server) Hour() int { return s.fleet.Hour() }

// durabilityStats assembles the /v1/stats durability block without
// taking any server lock — a stats poll must never wait behind a
// catch-up step or a snapshot write. The generation and snapshot-hour
// reads are individually atomic; a rotation between them can show a
// momentarily mixed pair, which monitoring tolerates.
func (s *Server) durabilityStats() *DurabilityStats {
	store := s.store.Load()
	if store == nil {
		return nil
	}
	ds := s.Recovery() // copy of the boot- or promotion-time recovery info
	ds.Generation = store.Generation()
	ds.LastSnapshotHour = int(s.lastSnapHour.Load())
	return &ds
}

// --- record and snapshot codecs ---
//
// The server snapshot wraps the fleet image with the auto-id counter:
// uvarint nextID | fleet bytes. Journal records are a type byte
// followed by uvarints (internal/frame fields); the job batch uses
// sched's job codec. All of it is pinned by golden tests.

func encodeServerSnapshot(nextID int, fleetImg []byte) []byte {
	e := frame.Enc{Buf: make([]byte, 0, len(fleetImg)+4)}
	e.Int(nextID)
	return append(e.Buf, fleetImg...)
}

func decodeServerSnapshot(payload []byte) (nextID int, fleetImg []byte, err error) {
	d := frame.Dec{Data: payload}
	nextID = d.Int()
	if d.Err != nil {
		return 0, nil, fmt.Errorf("snapshot header: %w", d.Err)
	}
	return nextID, d.Rest(), nil
}

// encodeAdmit appends the sampled trace's 16-byte ID after the job
// batch — only when one is present, so unsampled records (the vast
// majority) are byte-identical to the pre-tracing format and the
// golden files still decode. The replication stream carries the record
// verbatim, which is how the follower learns which trace its apply
// span belongs to.
func encodeAdmit(arrival, nextID int, jobs []sched.Job, tid tracing.TraceID) []byte {
	e := frame.Enc{Buf: []byte{recAdmit}}
	e.Int(arrival)
	e.Int(nextID)
	buf := sched.EncodeJobs(e.Buf, jobs)
	if !tid.IsZero() {
		buf = append(buf, tid[:]...)
	}
	return buf
}

func decodeAdmit(payload []byte) (arrival, nextID int, jobs []sched.Job, tid tracing.TraceID, err error) {
	d := frame.Dec{Data: payload[1:]}
	arrival, nextID = d.Int(), d.Int()
	if d.Err != nil {
		return 0, 0, nil, tid, fmt.Errorf("admit record: %w", d.Err)
	}
	jobs, rest, err := sched.DecodeJobs(d.Rest())
	if err != nil {
		return 0, 0, nil, tid, fmt.Errorf("admit record: %w", err)
	}
	switch len(rest) {
	case 0: // untraced record (or one written before tracing existed)
	case len(tid):
		copy(tid[:], rest)
	default:
		return 0, 0, nil, tracing.TraceID{}, fmt.Errorf("admit record: %d trailing bytes", len(rest))
	}
	return arrival, nextID, jobs, tid, nil
}

func encodeWatermark(hour int) []byte {
	e := frame.Enc{Buf: []byte{recWatermark}}
	e.Int(hour)
	return e.Buf
}

func decodeWatermark(payload []byte) (int, error) {
	d := frame.Dec{Data: payload[1:]}
	hour := d.Int()
	if err := d.Done(); err != nil {
		return 0, fmt.Errorf("watermark record: %w", err)
	}
	return hour, nil
}
