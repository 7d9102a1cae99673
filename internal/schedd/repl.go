package schedd

// The replication face of the server, both directions.
//
// As a primary, a journaling Server implements repl.Backend: the
// stream source reads journal files by generation and byte offset, the
// live journal's buffer is flushed on demand (no fsync — replication
// rides the durability the journal already provides), and the
// bootstrap snapshot is the newest on-disk one, which by the rotation
// invariant is exactly the state at the start of the current
// generation's journal.
//
// As a follower, the Server implements repl.Applier with the two
// functions boot recovery is made of (durable.go): a snapshot bootstrap
// is restore, and each streamed record goes through apply, strictly in
// stream order — which reproduces the primary's fleet-event order
// exactly, because the primary buffers both record types under admitMu.
// The replication equivalence test pins the consequence: at every
// shared watermark the follower's Marshal image is byte-identical to
// the primary's.
//
// Promotion turns a follower into a primary in place, and is boot's
// second half: stop the tail, openStore the follower's own data dir,
// takeAuthority — snapshot the replicated state as a fresh generation
// and start accepting writes. The 421 write-redirect contract (see
// client.go) points writers at whoever is primary.

import (
	"errors"
	"fmt"
	"net/http"
	"time"

	"carbonshift/internal/repl"
	"carbonshift/internal/tracing"
)

// Server roles. A server is born primary (New) or follower
// (NewFollower); the only transition is follower → primary, at
// promotion.
const (
	rolePrimary int32 = iota
	roleFollower
)

func (s *Server) isFollower() bool { return s.role.Load() == roleFollower }

// Role reports "primary" or "follower".
func (s *Server) Role() string {
	if s.isFollower() {
		return "follower"
	}
	return "primary"
}

// --- repl.Backend (primary side) ---

// Generation returns the live snapshot+journal generation — the
// replication Backend hook (0 without a DataDir).
func (s *Server) Generation() uint64 {
	d := s.dur.Load()
	if d == nil {
		return 0
	}
	return d.gen.Load()
}

// JournalPath returns one generation's journal file path — the
// replication Backend hook ("" without a DataDir).
func (s *Server) JournalPath(gen uint64) string {
	d := s.dur.Load()
	if d == nil {
		return ""
	}
	return d.store.JournalPath(gen)
}

// FlushJournal pushes the live journal's buffered records into its
// file so the replication stream can read them; it never forces an
// fsync — followers replicate acknowledged records at the durability
// the journal's own sync discipline provides.
func (s *Server) FlushJournal() {
	if j := s.liveJournal(); j != nil {
		j.Flush()
	}
}

// SnapshotLatest returns the newest on-disk snapshot for follower
// bootstrap. A rotation can remove the file between listing and
// reading, so a failed read is retried against the fresh directory
// state rather than surfacing a transient error to the follower.
func (s *Server) SnapshotLatest() (uint64, []byte, error) {
	d := s.dur.Load()
	if d == nil {
		return 0, nil, errors.New("schedd: no data dir")
	}
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		gen, payload, err := d.store.LatestSnapshot()
		if err == nil && gen > 0 {
			return gen, payload, nil
		}
		if err == nil {
			err = errors.New("schedd: no snapshot on disk yet")
		}
		lastErr = err
		time.Sleep(5 * time.Millisecond)
	}
	return 0, nil, lastErr
}

// --- repl.Applier (follower side) ---

// RestoreReplSnapshot replaces the follower's entire state with a
// primary snapshot — the bootstrap half of the replication Applier.
func (s *Server) RestoreReplSnapshot(payload []byte) error {
	if err := s.restore(payload); err != nil {
		return fmt.Errorf("schedd: replication snapshot: %w", err)
	}
	return nil
}

// ApplyReplRecord applies one streamed journal record, strictly in
// stream order, through the dispatcher boot recovery uses (apply, in
// durable.go) — journal order equals fleet-event order on the primary,
// so this replays the primary's exact history (the equivalence the
// replication tests assert byte-for-byte). It adds only what a live
// follower has and a booting server does not: the apply span and the
// OnWatermark hook. Exported for the tailer and the follower-apply
// benchmark; the caller serializes invocations.
func (s *Server) ApplyReplRecord(payload []byte) error {
	start := time.Now()
	a, err := s.apply(payload)
	if err != nil {
		return fmt.Errorf("schedd: replication record: %w", err)
	}
	if !a.watermark {
		// A record that carried the primary's sampled trace ID joins
		// that trace here: the apply span lands in THIS server's ring
		// under the SAME trace ID — one trace, two processes.
		s.tr.Record(a.trace, "repl.apply", tracing.SpanID{}, start, time.Since(start),
			tracing.Int("jobs", a.jobs), tracing.Int("arrival_hour", a.hour))
	} else if s.fol != nil && s.fol.cfg.OnWatermark != nil {
		s.fol.cfg.OnWatermark(a.hour)
	}
	return nil
}

// --- promotion ---

// Promote turns a follower into the primary — boot's second half,
// over state the stream built instead of a local journal: the tail
// stops, the follower's own DataDir (when configured) is claimed
// (openStore) without recovering from it, and takeAuthority snapshots
// the replicated state there as the generation past anything the
// directory already holds. The server then accepts writes — including
// serving the replication endpoints to the next generation of
// followers. Idempotent: promoting a primary reports false with no
// error. On failure the server resumes following, so a misconfigured
// promotion never silently stops replication.
func (s *Server) Promote() (bool, error) {
	if s.fol == nil {
		return false, nil // born primary
	}
	s.fol.promoteMu.Lock()
	defer s.fol.promoteMu.Unlock()
	if !s.isFollower() {
		return false, nil // already promoted
	}
	s.stopTail()
	if s.cfg.DataDir != "" {
		store, gen, _, err := s.openStore()
		if err == nil {
			err = s.takeAuthority(store, gen)
		}
		if err != nil {
			s.resumeTail()
			return false, err
		}
	}
	// Lineage: the promoted state was recovered over the wire rather
	// than from a local journal, but it is a recovery all the same, and
	// /v1/stats reports it as one.
	s.recovery.Store(&DurabilityStats{
		Recovered:             true,
		RecoveredSnapshotHour: s.fleet.Hour(),
		RecoveredJobs:         s.fleet.Jobs(),
	})
	s.known.Store(int64(s.fleet.Hour()))
	// Quota windows continue from the replicated arrivals — a promoted
	// primary must not grant every tenant a fresh hour.
	s.resetGate()
	// Rebase the clock (onPromote) BEFORE the role flips: the moment
	// role reads primary, concurrent requests drive advance() off the
	// clock, and an un-rebased one would step the fleet far past the
	// replicated hour.
	if s.onPromote != nil {
		s.onPromote(s.fleet.Hour())
	}
	s.role.Store(rolePrimary)
	return true, nil
}

// --- HTTP endpoints ---

// writeMisdirected is the 421 write-redirect contract: a follower
// rejects state-changing requests and names the primary it follows so
// a failover-aware client (httpx.Endpoints) can redirect.
func (s *Server) writeMisdirected(w http.ResponseWriter) {
	writeJSON(w, http.StatusMisdirectedRequest, ErrorResponse{
		Error:   "this instance is a read-only follower; send writes to the primary",
		Primary: s.fol.cfg.Primary,
	})
}

func (s *Server) handleReplStream(w http.ResponseWriter, r *http.Request) {
	src := s.replSourceIfPrimary(w)
	if src != nil {
		src.HandleStream(w, r)
	}
}

func (s *Server) handleReplSnapshot(w http.ResponseWriter, r *http.Request) {
	src := s.replSourceIfPrimary(w)
	if src != nil {
		src.HandleSnapshot(w, r)
	}
}

// replSourceIfPrimary gates the source endpoints: followers redirect
// (chained replication is not supported), and a primary without a
// DataDir has no journal to stream.
func (s *Server) replSourceIfPrimary(w http.ResponseWriter) *repl.Source {
	if s.isFollower() {
		s.writeMisdirected(w)
		return nil
	}
	if s.dur.Load() == nil {
		writeJSON(w, http.StatusNotFound, ErrorResponse{Error: "replication requires a -data-dir on the primary"})
		return nil
	}
	return s.source
}

// PromoteResponse is the POST /v1/repl/promote payload.
type PromoteResponse struct {
	// Promoted reports whether this call performed the transition
	// (false when the server already was primary).
	Promoted bool   `json:"promoted"`
	Role     string `json:"role"`
	Hour     int    `json:"hour"`
	Jobs     int    `json:"jobs"`
}

func (s *Server) handleReplPromote(w http.ResponseWriter, r *http.Request) {
	promoted, err := s.Promote()
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, ErrorResponse{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, PromoteResponse{
		Promoted: promoted,
		Role:     s.Role(),
		Hour:     s.fleet.Hour(),
		Jobs:     s.fleet.Jobs(),
	})
}

// --- monitoring ---

// ReplicationStats is the /v1/stats view of the replication session.
type ReplicationStats struct {
	// Role is "primary" or "follower".
	Role string `json:"role"`
	// Primary is the followed (or, after promotion, formerly followed)
	// primary's base URL.
	Primary string `json:"primary,omitempty"`
	// Advertise is this server's own public URL, if configured.
	Advertise string `json:"advertise,omitempty"`
	// Promoted reports that this primary began life as a follower.
	Promoted bool `json:"promoted,omitempty"`
	// CursorGeneration/CursorOffset are the replication cursor — the
	// exact journal position the follower has applied through.
	CursorGeneration uint64 `json:"cursor_generation,omitempty"`
	CursorOffset     int64  `json:"cursor_offset,omitempty"`
	// PrimaryHour is the primary's fleet hour from its latest
	// heartbeat (-1 before one arrives); LagHours is how far this
	// follower's fleet trails it.
	PrimaryHour int `json:"primary_hour"`
	LagHours    int `json:"lag_hours"`
	repl.TailStats
}

// replicationLag returns how many fleet hours this follower trails the
// primary's last heartbeat (0 when unknown or caught up).
func (s *Server) replicationLag() int {
	if s.fol == nil {
		return 0
	}
	lag := s.fol.tail.PrimaryHour() - s.fleet.Hour()
	if lag < 0 {
		return 0
	}
	return lag
}

// replicationStats assembles the /v1/stats replication block (nil for
// a plain primary with no advertise URL — nothing to report).
func (s *Server) replicationStats() *ReplicationStats {
	if s.fol == nil && s.cfg.Advertise == "" {
		return nil
	}
	rs := &ReplicationStats{
		Role:        s.Role(),
		Advertise:   s.cfg.Advertise,
		PrimaryHour: -1,
	}
	if s.fol != nil {
		rs.Primary = s.fol.cfg.Primary
		rs.Promoted = !s.isFollower()
		rs.PrimaryHour = s.fol.tail.PrimaryHour()
		rs.LagHours = s.replicationLag()
		rs.TailStats = s.fol.tail.Stats()
		if cur, ok := s.fol.tail.Cursor(); ok {
			rs.CursorGeneration = cur.Generation
			rs.CursorOffset = cur.Offset
		}
	}
	return rs
}
