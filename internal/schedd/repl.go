package schedd

// The replication face of the server, both directions.
//
// As a primary, a journaling Server serves repl.Source over its
// wal.Store: the source reads journal files by generation and byte
// offset, flushes the live journal's buffer on demand (no fsync —
// replication rides the durability the journal already provides), and
// bootstraps from the newest on-disk snapshot, which by the rotation
// invariant (wal.Store.Rotate) is exactly the state at the start of
// the current generation's journal.
//
// As a follower, the Server implements repl.Applier with the two
// functions boot recovery is made of (durable.go): a snapshot bootstrap
// is restore, and each streamed record goes through apply, strictly in
// stream order — which reproduces the primary's fleet-event order
// exactly, because the primary buffers both record types under admitMu.
// The fault schedules pin the consequence: at every lock-step point the
// follower's server image is byte-identical to the primary's.
//
// Promotion turns a follower into a primary in place, and is boot's
// second half: stop the tail, openStore the follower's own data dir,
// takeAuthority — snapshot the replicated state as a fresh generation
// and start accepting writes. The 421 write-redirect contract (see
// client.go) points writers at whoever is primary.
//
// What the server is lives in one value, its role: New installs a
// primary's, NewFollower a follower's, and Promote swaps the follower's
// for a primary's exactly once. The request path branches on it in one
// place, guard.

import (
	"fmt"
	"net/http"
	"strconv"
	"time"

	"carbonshift/internal/repl"
	"carbonshift/internal/tracing"
)

// role is everything in which a primary and a follower differ.
// Immutable: a transition installs a new value.
type role struct {
	// name is what Role, /v1/stats and the promote answer report.
	name string
	// following makes the server read-only: guard answers the
	// primary-only routes with 421 naming session's primary and stamps
	// every response with the replication lag.
	following bool
	// target is the hour advance steps the fleet to before a request is
	// answered: the clock's on a primary; on a follower hour 0, which
	// every fleet has reached — the tail drives a follower's fleet, never
	// the clock.
	target func(*Server) int
	// session is the replication session the server was built with,
	// kept by the promoted role so /v1/stats can report where the server
	// came from; nil on a born primary.
	session *followerState
}

func primaryRole(session *followerState) *role {
	return &role{name: "primary", target: (*Server).hourNow, session: session}
}

func followerRole(session *followerState) *role {
	return &role{name: "follower", following: true, target: func(*Server) int { return 0 }, session: session}
}

// Role reports "primary" or "follower".
func (s *Server) Role() string { return s.role.Load().name }

// Generation returns the live snapshot+journal generation (0 without a
// DataDir).
func (s *Server) Generation() uint64 {
	if store := s.store.Load(); store != nil {
		return store.Generation()
	}
	return 0
}

// JournalPath returns one generation's journal file path ("" without a
// DataDir).
func (s *Server) JournalPath(gen uint64) string {
	if store := s.store.Load(); store != nil {
		return store.JournalPath(gen)
	}
	return ""
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
// fault schedules assert byte-for-byte). It adds only what a live
// follower has and a booting server does not: the apply span. Exported
// for the tailer and the follower-apply benchmark; the caller
// serializes invocations.
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
	s.promoteMu.Lock()
	defer s.promoteMu.Unlock()
	r := s.role.Load()
	if !r.following {
		return false, nil // a primary, born or promoted
	}
	r.session.stop()
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
	// Rebase the clock (onPromote) BEFORE the role is swapped: the moment
	// the primary's role is installed, concurrent requests drive advance()
	// off the clock, and an un-rebased one would step the fleet far past
	// the replicated hour.
	if s.onPromote != nil {
		s.onPromote(s.fleet.Hour())
	}
	s.role.Store(primaryRole(r.session))
	return true, nil
}

// --- HTTP endpoints ---

// guard is the request path's one look at the role, wrapped around
// every route at registration. On a follower, every response carries
// X-Replication-Lag-Hours — how many fleet hours the replicated state
// trails the primary's last heartbeat, so read clients can bound
// staleness — and a primary-only route (a write, or the replication
// source: chained replication is not supported) answers 421 naming the
// primary, the write-redirect contract a failover-aware client
// (httpx.Endpoints) follows.
func (s *Server) guard(primaryOnly bool, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, req *http.Request) {
		if r := s.role.Load(); r.following {
			w.Header().Set("X-Replication-Lag-Hours", strconv.Itoa(r.session.lag(s.fleet.Hour())))
			if primaryOnly {
				writeJSON(w, http.StatusMisdirectedRequest, ErrorResponse{
					Error:   "this instance is a read-only follower; send writes to the primary",
					Primary: r.session.cfg.Primary,
				})
				return
			}
		}
		h(w, req)
	}
}

func (s *Server) handleReplStream(w http.ResponseWriter, r *http.Request) {
	if src := s.replSource(w); src != nil {
		src.HandleStream(w, r)
	}
}

func (s *Server) handleReplSnapshot(w http.ResponseWriter, r *http.Request) {
	if src := s.replSource(w); src != nil {
		src.HandleSnapshot(w, r)
	}
}

// replSource is the journal stream a primary serves to its followers;
// a primary without a DataDir has none (404).
func (s *Server) replSource(w http.ResponseWriter) *repl.Source {
	if s.store.Load() == nil {
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

// replicationStats assembles the /v1/stats replication block (nil for
// a born primary with no advertise URL — nothing to report).
func (s *Server) replicationStats() *ReplicationStats {
	r := s.role.Load()
	rs := r.session.stats(s.fleet.Hour())
	switch {
	case rs != nil:
		rs.Promoted = !r.following
	case s.cfg.Advertise == "":
		return nil
	default:
		rs = &ReplicationStats{PrimaryHour: -1}
	}
	rs.Role, rs.Advertise = r.name, s.cfg.Advertise
	return rs
}
