package repl

// The follower side: Tail maintains one replication session against a
// primary — bootstrap from snapshot when it has no cursor, then stream
// and apply records, reconnecting from the cursor after any transport
// failure. The applied-record / cursor pair advances atomically from
// the stream goroutine's point of view (apply, then move the cursor),
// so a reconnect never skips a record and never re-applies one. Only a
// 410 (cursor fell behind the retained generations), an end frame, or
// an apply error — a diverged or corrupted follower state — invalidate
// the cursor and force a fresh snapshot bootstrap, which fully replaces
// the follower's state and is therefore always safe.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"carbonshift/internal/httpx"
	"carbonshift/internal/wal"
)

// Applier consumes the replicated state: a snapshot restore on
// bootstrap, then journal records in exact stream order.
// internal/schedd's follower-mode Server implements it.
type Applier interface {
	// RestoreReplSnapshot replaces the applier's entire state with a
	// decoded snapshot payload.
	RestoreReplSnapshot(snapshot []byte) error
	// ApplyReplRecord applies one journal record.
	ApplyReplRecord(record []byte) error
}

// TailStats is a monitoring snapshot of one replication session.
type TailStats struct {
	// RecordsApplied counts journal records applied since construction.
	RecordsApplied uint64 `json:"records_applied"`
	// Bootstraps counts full snapshot restores.
	Bootstraps uint64 `json:"bootstraps"`
	// Reconnects counts stream re-dials after a drop.
	Reconnects uint64 `json:"reconnects"`
	// LastError is the most recent session error ("" when healthy).
	LastError string `json:"last_error,omitempty"`
}

// Tail replicates one primary into one Applier. Run drives it; the
// accessors are safe from any goroutine. A Tail keeps its cursor across
// Run calls, so cancelling Run and calling it again resumes the stream
// with no gap and no double-apply — the follower restart path.
type Tail struct {
	primary string
	applier Applier
	hc      *http.Client
	delay   time.Duration // before re-dialing after a failure

	mu      sync.Mutex
	cur     Cursor
	haveCur bool
	lastErr error

	primaryHour atomic.Int64
	records     atomic.Uint64
	bootstraps  atomic.Uint64
	reconnects  atomic.Uint64
}

// maxSnapshotBody bounds a bootstrap transfer, snapshotTimeout its
// duration.
const (
	maxSnapshotBody = 1 << 30
	snapshotTimeout = 30 * time.Second
)

// NewTail builds a replication session against the primary's base URL.
// A nil httpClient uses a dedicated client with no global timeout (the
// stream is long-lived by design). reconnectDelay is the pause before
// re-dialing after a failure (<= 0: 200ms).
func NewTail(primary string, applier Applier, httpClient *http.Client, reconnectDelay time.Duration) *Tail {
	if httpClient == nil {
		httpClient = &http.Client{}
	}
	if reconnectDelay <= 0 {
		reconnectDelay = 200 * time.Millisecond
	}
	t := &Tail{primary: primary, applier: applier, hc: httpClient, delay: reconnectDelay}
	t.primaryHour.Store(-1)
	return t
}

// Run replicates until ctx is cancelled, reconnecting and
// re-bootstrapping as needed. It never returns a non-ctx error — every
// failure is recorded in Stats and retried.
func (t *Tail) Run(ctx context.Context) {
	for ctx.Err() == nil {
		if _, ok := t.Cursor(); !ok {
			if err := t.bootstrap(ctx); err != nil {
				t.setErr(err)
				t.sleep(ctx)
				continue
			}
		}
		err := t.stream(ctx)
		if ctx.Err() != nil {
			return
		}
		t.setErr(err)
		t.reconnects.Add(1)
		t.sleep(ctx)
	}
}

func (t *Tail) sleep(ctx context.Context) {
	select {
	case <-ctx.Done():
	case <-time.After(t.delay):
	}
}

// Cursor returns the current replication cursor and whether one exists
// (false before the first bootstrap and after an invalidation).
func (t *Tail) Cursor() (Cursor, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.cur, t.haveCur
}

func (t *Tail) setCursor(c Cursor) {
	t.mu.Lock()
	t.cur, t.haveCur = c, true
	t.mu.Unlock()
}

func (t *Tail) invalidateCursor() {
	t.mu.Lock()
	t.haveCur = false
	t.mu.Unlock()
}

func (t *Tail) setErr(err error) {
	t.mu.Lock()
	t.lastErr = err
	t.mu.Unlock()
}

// PrimaryHour returns the primary's fleet hour from the latest
// heartbeat, or -1 before any heartbeat arrived.
func (t *Tail) PrimaryHour() int { return int(t.primaryHour.Load()) }

// Stats returns a monitoring snapshot.
func (t *Tail) Stats() TailStats {
	s := TailStats{
		RecordsApplied: t.records.Load(),
		Bootstraps:     t.bootstraps.Load(),
		Reconnects:     t.reconnects.Load(),
	}
	t.mu.Lock()
	if t.lastErr != nil {
		s.LastError = t.lastErr.Error()
	}
	t.mu.Unlock()
	return s
}

// bootstrap fetches and restores the primary's newest snapshot, then
// points the cursor at the start of that snapshot's generation.
func (t *Tail) bootstrap(ctx context.Context) error {
	ctx, cancel := context.WithTimeout(ctx, snapshotTimeout)
	defer cancel()
	resp, err := t.get(ctx, "/v1/repl/snapshot", "repl: bootstrap")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	gen, err := strconv.ParseUint(resp.Header.Get("X-Repl-Generation"), 10, 64)
	if err != nil || gen == 0 {
		return fmt.Errorf("repl: bootstrap: bad X-Repl-Generation %q", resp.Header.Get("X-Repl-Generation"))
	}
	payload, err := io.ReadAll(io.LimitReader(resp.Body, maxSnapshotBody))
	if err != nil {
		return fmt.Errorf("repl: bootstrap: reading snapshot: %w", err)
	}
	if err := t.applier.RestoreReplSnapshot(payload); err != nil {
		return fmt.Errorf("repl: bootstrap: %w", err)
	}
	t.setCursor(Cursor{Generation: gen, Offset: int64(wal.HeaderLen)})
	t.bootstraps.Add(1)
	t.setErr(nil)
	return nil
}

// get is the tail's one request: a GET of path on the primary whose
// 200 body is left open for the caller to consume as it arrives (the
// stream) or under its own bound (the snapshot). Any other status is
// read under MaxBody and comes back as a *httpx.StatusError.
func (t *Tail) get(ctx context.Context, path, prefix string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, t.primary+path, nil)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", prefix, err)
	}
	resp, err := t.hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", prefix, err)
	}
	if resp.StatusCode != http.StatusOK {
		defer resp.Body.Close()
		body, _ := io.ReadAll(io.LimitReader(resp.Body, httpx.MaxBody))
		return nil, httpx.DecodeResponse(resp.StatusCode, resp.Status, body, prefix, nil)
	}
	return resp, nil
}

// stream opens one streaming connection at the cursor and applies
// frames until it drops. A nil return means "reconnect from the
// cursor" (or re-bootstrap, if the cursor was invalidated).
func (t *Tail) stream(ctx context.Context) error {
	cur, ok := t.Cursor()
	if !ok {
		return nil
	}
	resp, err := t.get(ctx, fmt.Sprintf("/v1/repl/stream?generation=%d&offset=%d", cur.Generation, cur.Offset), "repl: stream")
	if httpx.StatusCodeOf(err) == http.StatusGone {
		// The cursor predates the oldest retained generation: the only
		// way forward is a fresh snapshot.
		t.invalidateCursor()
		return fmt.Errorf("repl: stream: cursor %s no longer retained, re-bootstrapping", cur)
	}
	if err != nil {
		return err
	}
	defer resp.Body.Close()

	fr := NewFrameReader(resp.Body)
	first := true
	for {
		f, err := fr.Next()
		if err != nil {
			if errors.Is(err, io.EOF) && !first {
				return nil // clean close; resume from cursor
			}
			return fmt.Errorf("repl: stream: %w", err)
		}
		if first != (f.Type == frameHello) {
			return fmt.Errorf("%w: stream must open with exactly one hello", ErrBadFrame)
		}
		switch f.Type {
		case frameHello:
			if f.Cursor != cur {
				return fmt.Errorf("repl: stream opened at %s, requested %s", f.Cursor, cur)
			}
		case frameRecord:
			if err := t.applier.ApplyReplRecord(f.Record); err != nil {
				// The follower's state can no longer be trusted to be a
				// journal prefix; replace it wholesale.
				t.invalidateCursor()
				return fmt.Errorf("repl: apply: %w", err)
			}
			cur.Offset = f.Cursor.Offset
			t.setCursor(cur)
			t.records.Add(1)
		case frameRotate:
			cur = f.Cursor
			t.setCursor(cur)
		case frameHeartbeat:
			t.primaryHour.Store(int64(f.Hour))
			t.setErr(nil)
		case frameEnd:
			t.invalidateCursor()
			return fmt.Errorf("repl: stream ended by source: %s", f.Reason)
		}
		first = false
	}
}
