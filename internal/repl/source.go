package repl

// The primary side: Source serves the journal as a resumable frame
// stream plus a snapshot-bootstrap endpoint, reading journal files
// through wal.SegmentReader and never touching the appenders' locks.
//
// Cursor semantics: a stream request names (generation, offset). The
// source serves it as long as that generation's journal file is still
// on disk — the current generation always is, and an older one survives
// only until the rotation that superseded it garbage-collects it. A
// cursor that predates the oldest retained generation (or overruns the
// file) gets 410 Gone with the current generation, telling the follower
// to bootstrap from /v1/repl/snapshot: the snapshot for generation G is
// by construction the state at the start of journal G, so the follower
// resumes streaming at (G, HeaderLen) with nothing lost.
//
// Rotation mid-stream is seamless: the source keeps the rotated
// journal's file handle open (deletion does not revoke it), drains it
// to its final byte — the primary closes a journal, making it complete,
// before it bumps the generation — then emits a rotate frame and
// continues in the next generation's file. Only when the next file is
// already gone (the follower fell a full generation behind while
// disconnected from the file system's point of view) does the source
// end the stream and force a bootstrap.

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"carbonshift/internal/httpx"
	"carbonshift/internal/wal"
)

// Backend is what the stream source needs from the primary scheduler.
// internal/schedd's Server implements it when journaling is enabled.
type Backend interface {
	// Generation returns the live snapshot+journal generation.
	Generation() uint64
	// JournalPath returns the journal file path for a generation.
	JournalPath(gen uint64) string
	// FlushJournal pushes the live journal's buffered records into its
	// file so stream reads observe them (no fsync implied).
	FlushJournal()
	// SnapshotLatest returns the newest on-disk snapshot — the state at
	// the start of the returned generation's journal.
	SnapshotLatest() (gen uint64, payload []byte, err error)
	// Hour returns the primary's current fleet hour, carried on
	// heartbeats so followers can report replication lag.
	Hour() int
}

// Source serves the replication endpoints for one primary.
type Source struct {
	b Backend
	// Poll is the cadence at which a caught-up stream re-checks the
	// journal for new records (default 15ms).
	Poll time.Duration
	// Heartbeat is the keepalive cadence on an idle stream (default
	// 500ms).
	Heartbeat time.Duration
}

// NewSource builds a Source over a primary backend.
func NewSource(b Backend) *Source {
	return &Source{b: b, Poll: 15 * time.Millisecond, Heartbeat: 500 * time.Millisecond}
}

// gone rejects a cursor the source cannot serve, pointing the follower
// at the snapshot bootstrap path.
func (s *Source) gone(w http.ResponseWriter, why string) {
	httpx.WriteJSON(w, http.StatusGone, map[string]any{
		"error":              "cursor not serveable: " + why + " (bootstrap from /v1/repl/snapshot)",
		"current_generation": s.b.Generation(),
	})
}

// HandleSnapshot serves GET /v1/repl/snapshot: the newest snapshot
// payload with its generation in X-Repl-Generation. A follower restores
// it and streams from (generation, wal.HeaderLen).
func (s *Source) HandleSnapshot(w http.ResponseWriter, r *http.Request) {
	gen, payload, err := s.b.SnapshotLatest()
	if err != nil {
		httpx.WriteJSON(w, http.StatusServiceUnavailable, map[string]string{"error": err.Error()})
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Repl-Generation", strconv.FormatUint(gen, 10))
	w.WriteHeader(http.StatusOK)
	w.Write(payload)
}

// HandleStream serves GET /v1/repl/stream?generation=G&offset=O: a
// chunked, long-polled frame stream that begins at the cursor and
// follows the journal — across rotations — until the client
// disconnects or the cursor becomes unserveable.
func (s *Source) HandleStream(w http.ResponseWriter, r *http.Request) {
	gen, err := strconv.ParseUint(r.URL.Query().Get("generation"), 10, 64)
	if err != nil || gen == 0 {
		s.gone(w, "missing or malformed generation")
		return
	}
	offset, err := strconv.ParseInt(r.URL.Query().Get("offset"), 10, 64)
	if err != nil || offset < int64(wal.HeaderLen) {
		s.gone(w, "missing or malformed offset")
		return
	}
	if gen > s.b.Generation() {
		s.gone(w, fmt.Sprintf("generation %d is in the future", gen))
		return
	}
	if gen == s.b.Generation() {
		s.b.FlushJournal()
	}
	sr, err := wal.OpenSegment(s.b.JournalPath(gen), offset)
	if err != nil {
		s.gone(w, fmt.Sprintf("generation %d is no longer retained", gen))
		return
	}
	defer sr.Close()
	if size, err := sr.Size(); err != nil || offset > size {
		s.gone(w, fmt.Sprintf("offset %d overruns generation %d", offset, gen))
		return
	}

	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	out := &frameWriter{w: w}
	out.send(AppendHello(out.buf, Cursor{Generation: gen, Offset: offset}))

	ctx := r.Context()
	lastBeat := time.Now()
	for ctx.Err() == nil && out.err == nil {
		// Read the live generation before draining. A journal is closed
		// — flushed and complete — before the generation advances past
		// it, so once live > gen this drain reaches the file's last
		// record. On the live generation, flush the appenders' buffer
		// first so the file holds everything acknowledged so far.
		live := s.b.Generation()
		if live == gen {
			s.b.FlushJournal()
		}
		from := sr.Offset()
		for out.err == nil {
			p, err := sr.Next()
			if errors.Is(err, wal.ErrNoRecord) {
				break
			}
			if err != nil {
				out.send(AppendEnd(out.buf, err.Error()))
				return
			}
			out.send(AppendRecord(out.buf, sr.Offset(), p))
		}
		if live > gen {
			// Move the reader, buffers and all, to the next generation's
			// file. If rotation already garbage-collected it, the
			// follower must re-bootstrap.
			if err := sr.Reopen(s.b.JournalPath(gen+1), int64(wal.HeaderLen)); err != nil {
				out.send(AppendEnd(out.buf, fmt.Sprintf("generation %d was garbage-collected", gen+1)))
				return
			}
			gen++
			out.send(AppendRotate(out.buf, Cursor{Generation: gen, Offset: int64(wal.HeaderLen)}))
			out.flush()
			continue
		}
		if sr.Offset() > from {
			out.flush()
			continue // there may be more already
		}

		// Caught up: long-poll, heartbeating so the follower can tell an
		// idle primary from a dead connection.
		if time.Since(lastBeat) >= s.Heartbeat {
			out.send(AppendHeartbeat(out.buf, s.b.Hour(), Cursor{Generation: gen, Offset: sr.Offset()}))
			out.flush()
			lastBeat = time.Now()
		}
		select {
		case <-ctx.Done():
			return
		case <-time.After(s.Poll):
		}
	}
}

// frameWriter writes frames to the HTTP response, latching the first
// write error (a vanished client) and flushing chunks eagerly.
type frameWriter struct {
	w   http.ResponseWriter
	err error
	// buf is the stream's one frame buffer, always empty between sends:
	// callers build each frame into it (AppendX(fw.buf, ...)) and send
	// keeps whatever it grew to.
	buf []byte
}

func (fw *frameWriter) send(frame []byte) {
	fw.buf = frame[:0]
	if fw.err != nil {
		return
	}
	_, fw.err = fw.w.Write(frame)
}

func (fw *frameWriter) flush() {
	if fw.err == nil {
		if f, ok := fw.w.(http.Flusher); ok {
			f.Flush()
		}
	}
}
