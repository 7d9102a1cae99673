package repl

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"carbonshift/internal/wal"
)

// fakePrimary is a minimal primary: a wal.Store data dir whose
// "state" is the concatenation of every record appended so far, so
// snapshots are trivially checkable.
type fakePrimary struct {
	t     *testing.T
	store *wal.Store
	hour  atomic.Int64

	mu    sync.Mutex
	state []byte
}

func newFakePrimary(t *testing.T) *fakePrimary {
	t.Helper()
	store, err := wal.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	p := &fakePrimary{t: t, store: store}
	p.rotate()
	return p
}

func (p *fakePrimary) append(payloads ...[]byte) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, x := range payloads {
		if err := p.store.Journal().Append(x); err != nil {
			p.t.Fatal(err)
		}
		p.state = append(p.state, x...)
	}
}

// rotate snapshots the state as the next generation.
func (p *fakePrimary) rotate() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.store.Rotate(p.store.Generation()+1, p.state, wal.Options{Sync: wal.SyncNone}); err != nil {
		p.t.Fatal(err)
	}
}

// recApplier rebuilds the fake backend's state from the stream.
type recApplier struct {
	mu        sync.Mutex
	state     []byte
	records   int
	restored  int
	lastSnap  []byte
	failApply error
}

func (a *recApplier) RestoreReplSnapshot(snap []byte) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.state = append([]byte(nil), snap...)
	a.lastSnap = append([]byte(nil), snap...)
	a.restored++
	return nil
}

func (a *recApplier) ApplyReplRecord(rec []byte) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.failApply != nil {
		return a.failApply
	}
	a.state = append(a.state, rec...)
	a.records++
	return nil
}

func (a *recApplier) snapshot() (state []byte, records, restored int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]byte(nil), a.state...), a.records, a.restored
}

func startSource(t *testing.T, p *fakePrimary) (*httptest.Server, *Source) {
	t.Helper()
	src := NewSource(p.store, func() int { return int(p.hour.Load()) })
	src.Poll = time.Millisecond
	src.Heartbeat = 5 * time.Millisecond
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/repl/stream", src.HandleStream)
	mux.HandleFunc("GET /v1/repl/snapshot", src.HandleSnapshot)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts, src
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSourceTailReplicates: snapshot bootstrap, live tailing, rotation
// mid-stream, and heartbeats all land the follower on a byte-exact
// copy of the primary's state.
func TestSourceTailReplicates(t *testing.T) {
	b := newFakePrimary(t)
	b.append([]byte("a1"), []byte("b22"))
	ts, _ := startSource(t, b)

	a := &recApplier{}
	tail := NewTail(ts.URL, a, ts.Client(), TailConfig{ReconnectDelay: time.Millisecond})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() { defer close(done); tail.Run(ctx) }()

	waitFor(t, "initial catch-up", func() bool { _, n, _ := a.snapshot(); return n == 2 })
	b.hour.Store(7)
	waitFor(t, "heartbeat hour", func() bool { return tail.PrimaryHour() == 7 })

	// More records, then a rotation with a third batch behind it.
	b.append([]byte("c333"))
	waitFor(t, "pre-rotation record", func() bool { _, n, _ := a.snapshot(); return n == 3 })
	b.rotate()
	b.append([]byte("d4444"), []byte("e"))
	waitFor(t, "post-rotation records", func() bool { _, n, _ := a.snapshot(); return n == 5 })

	state, _, restored := a.snapshot()
	if restored != 1 {
		t.Fatalf("restored %d times, want exactly one bootstrap", restored)
	}
	if want := []byte("a1b22c333d4444e"); !bytes.Equal(state, want) {
		t.Fatalf("follower state %q, want %q", state, want)
	}
	if cur, ok := tail.Cursor(); !ok || cur.Generation != b.store.Generation() {
		t.Fatalf("cursor = %v/%v, want generation %d", cur, ok, b.store.Generation())
	}
	st := tail.Stats()
	if st.RecordsApplied != 5 || st.Bootstraps != 1 {
		t.Fatalf("stats = %+v", st)
	}
	cancel()
	<-done
}

// discardWriter is a stream response nobody reads; its flushes-th
// Flush cancels the stream.
type discardWriter struct {
	h       http.Header
	flushes int
	cancel  context.CancelFunc
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *discardWriter) WriteHeader(int)             {}
func (w *discardWriter) Flush() {
	if w.flushes--; w.flushes == 0 {
		w.cancel()
	}
}

// TestStreamRotationsKeepReadBuffer streams sixteen generations from
// the first and bounds what the source allocates: one reader's 32 KiB
// buffer for the whole stream, and under 4 KiB a rotation for the file
// handle and the frames, where a reader opened per rotation would
// allocate its buffer sixteen times.
func TestStreamRotationsKeepReadBuffer(t *testing.T) {
	const gens = 16
	store, err := wal.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	// Generation 16 is live; 1 to 15 are written after its rotation, so
	// none has been garbage-collected.
	if err := store.Rotate(gens, nil, wal.Options{Sync: wal.SyncNone}); err != nil {
		t.Fatal(err)
	}
	fill := func(j *wal.Journal) {
		for _, p := range [][]byte{[]byte("a1"), []byte("b22"), []byte("c333")} {
			if err := j.Append(p); err != nil {
				t.Fatal(err)
			}
		}
		if err := j.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	for gen := uint64(1); gen < gens; gen++ {
		j, err := wal.Create(store.JournalPath(gen), wal.Options{Sync: wal.SyncNone})
		if err != nil {
			t.Fatal(err)
		}
		fill(j)
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
	}
	fill(store.Journal())
	src := NewSource(store, func() int { return 0 })
	stream := func() {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		// One flush per rotation, then one after draining the live
		// generation.
		w := &discardWriter{h: http.Header{}, flushes: gens, cancel: cancel}
		req := httptest.NewRequest("GET", fmt.Sprintf("/v1/repl/stream?generation=1&offset=%d", wal.HeaderLen), nil)
		src.HandleStream(w, req.WithContext(ctx))
	}
	stream()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	stream()
	runtime.ReadMemStats(&after)
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(32<<10+(gens-1)*4<<10); got > limit {
		t.Fatalf("a stream over %d generations allocated %d B, over %d B", gens, got, limit)
	}
}

// TestTailResumesAcrossRestart: cancelling Run and running the same
// Tail again resumes from the cursor — no gap, no double-apply.
func TestTailResumesAcrossRestart(t *testing.T) {
	b := newFakePrimary(t)
	ts, _ := startSource(t, b)
	a := &recApplier{}
	tail := NewTail(ts.URL, a, ts.Client(), TailConfig{ReconnectDelay: time.Millisecond})

	ctx1, cancel1 := context.WithCancel(context.Background())
	done1 := make(chan struct{})
	go func() { defer close(done1); tail.Run(ctx1) }()
	b.append([]byte("one"))
	waitFor(t, "first record", func() bool { _, n, _ := a.snapshot(); return n == 1 })
	cancel1()
	<-done1

	// Records appended while the follower is down.
	b.append([]byte("-two"), []byte("-three"))

	ctx2, cancel2 := context.WithCancel(context.Background())
	done2 := make(chan struct{})
	go func() { defer close(done2); tail.Run(ctx2) }()
	waitFor(t, "resume catch-up", func() bool { _, n, _ := a.snapshot(); return n == 3 })
	state, _, restored := a.snapshot()
	if restored != 1 {
		t.Fatalf("restart re-bootstrapped (%d restores), cursor resume expected", restored)
	}
	if want := []byte("one-two-three"); !bytes.Equal(state, want) {
		t.Fatalf("state %q, want %q", state, want)
	}
	cancel2()
	<-done2
}

// TestTailRebootstrapsWhenBehind: a follower whose generation was
// garbage-collected gets 410 and recovers via a fresh snapshot.
func TestTailRebootstrapsWhenBehind(t *testing.T) {
	b := newFakePrimary(t)
	ts, _ := startSource(t, b)
	a := &recApplier{}
	tail := NewTail(ts.URL, a, ts.Client(), TailConfig{ReconnectDelay: time.Millisecond})

	ctx1, cancel1 := context.WithCancel(context.Background())
	done1 := make(chan struct{})
	go func() { defer close(done1); tail.Run(ctx1) }()
	b.append([]byte("kept"))
	waitFor(t, "first record", func() bool { _, n, _ := a.snapshot(); return n == 1 })
	cancel1()
	<-done1

	// Two rotations while the follower is down: its generation-1 cursor
	// is now garbage-collected.
	b.append([]byte("-lost-to-snapshot"))
	b.rotate()
	b.rotate()
	b.append([]byte("-fresh"))

	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	done2 := make(chan struct{})
	go func() { defer close(done2); tail.Run(ctx2) }()
	want := []byte("kept-lost-to-snapshot-fresh")
	waitFor(t, "re-bootstrap catch-up", func() bool { s, _, _ := a.snapshot(); return bytes.Equal(s, want) })
	if _, _, restored := a.snapshot(); restored != 2 {
		t.Fatalf("restored %d times, want 2 (initial + post-410)", restored)
	}
	if tail.Stats().Bootstraps != 2 {
		t.Fatalf("stats = %+v", tail.Stats())
	}
	cancel2()
	<-done2
}

// TestTailRebootstrapsOnApplyError: a follower that cannot apply a
// record discards its state and re-bootstraps rather than serving a
// diverged copy.
func TestTailRebootstrapsOnApplyError(t *testing.T) {
	b := newFakePrimary(t)
	b.append([]byte("base"))
	b.rotate() // snapshot now holds "base"
	ts, _ := startSource(t, b)

	a := &recApplier{failApply: fmt.Errorf("synthetic divergence")}
	tail := NewTail(ts.URL, a, ts.Client(), TailConfig{ReconnectDelay: time.Millisecond})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() { defer close(done); tail.Run(ctx) }()

	waitFor(t, "bootstrap", func() bool { _, _, r := a.snapshot(); return r >= 1 })
	b.append([]byte("-poison"))
	waitFor(t, "apply failure surfaced", func() bool { return tail.Stats().LastError != "" })
	a.mu.Lock()
	a.failApply = nil
	a.mu.Unlock()
	want := []byte("base-poison")
	waitFor(t, "self-heal", func() bool { s, _, _ := a.snapshot(); return bytes.Equal(s, want) })
	if _, _, restored := a.snapshot(); restored < 2 {
		t.Fatalf("restored %d times, want a re-bootstrap after the apply error", restored)
	}
	cancel()
	<-done
}

// TestStreamCursorValidation: the source rejects unserveable cursors
// with 410 Gone rather than streaming garbage.
func TestStreamCursorValidation(t *testing.T) {
	b := newFakePrimary(t)
	b.append([]byte("x"))
	ts, _ := startSource(t, b)

	for _, q := range []string{
		"",                          // no cursor at all
		"generation=0&offset=5",     // generation 0 never exists
		"generation=9&offset=5",     // future generation
		"generation=1&offset=1",     // offset inside the header
		"generation=1&offset=99999", // offset past the file
		"generation=1&offset=abc",   // malformed
	} {
		resp, err := ts.Client().Get(ts.URL + "/v1/repl/stream?" + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusGone {
			t.Errorf("query %q: status %d, want 410", q, resp.StatusCode)
		}
	}
}

// TestSnapshotEndpoint pins the bootstrap wire contract: the payload
// body plus the generation header.
func TestSnapshotEndpoint(t *testing.T) {
	b := newFakePrimary(t)
	b.append([]byte("snap-state"))
	b.rotate()
	ts, _ := startSource(t, b)

	resp, err := ts.Client().Get(ts.URL + "/v1/repl/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Repl-Generation"); got != "2" {
		t.Fatalf("X-Repl-Generation = %q, want 2", got)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if buf.String() != "snap-state" {
		t.Fatalf("snapshot body %q", buf.String())
	}
}
