package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func appendAll(t *testing.T, path string, opts Options, payloads ...[]byte) {
	t.Helper()
	j, err := Create(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range payloads {
		if err := j.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

func replayAll(t *testing.T, path string) ([][]byte, ReplayResult) {
	t.Helper()
	var got [][]byte
	res, err := Replay(path, func(p []byte) error {
		got = append(got, append([]byte(nil), p...))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return got, res
}

func TestJournalRoundTrip(t *testing.T) {
	for _, mode := range []SyncMode{SyncNone, SyncBatch, SyncAlways} {
		t.Run(mode.String(), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "j.wal")
			want := [][]byte{[]byte("alpha"), {0}, []byte("gamma with a longer payload"), {0, 1, 2, 255}}
			appendAll(t, path, Options{Sync: mode}, want...)
			got, res := replayAll(t, path)
			if res.Truncated {
				t.Fatal("clean journal reported truncated")
			}
			if res.Records != len(want) {
				t.Fatalf("replayed %d records, want %d", res.Records, len(want))
			}
			fi, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if res.ValidBytes != fi.Size() {
				t.Fatalf("ValidBytes %d, file size %d", res.ValidBytes, fi.Size())
			}
			for i := range want {
				if !bytes.Equal(got[i], want[i]) {
					t.Fatalf("record %d = %q, want %q", i, got[i], want[i])
				}
			}
		})
	}
}

// TestJournalTornTail: every possible truncation point of a valid
// journal replays the longest prefix of complete records and reports
// the torn tail, never an error or a partial record.
func TestJournalTornTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "j.wal")
	payloads := [][]byte{[]byte("one"), []byte("two-two"), []byte("3")}
	appendAll(t, path, Options{Sync: SyncNone}, payloads...)
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Record boundaries: header, then each record end.
	boundaries := []int64{int64(HeaderLen)}
	for _, p := range payloads {
		boundaries = append(boundaries, boundaries[len(boundaries)-1]+int64(recordHeaderLen+len(p)))
	}

	cut := filepath.Join(dir, "cut.wal")
	for c := 0; c <= len(full); c++ {
		if err := os.WriteFile(cut, full[:c], 0o644); err != nil {
			t.Fatal(err)
		}
		got, res := replayAll(t, cut)
		// The expected prefix: every record fully inside the cut.
		want := 0
		for i := 1; i < len(boundaries); i++ {
			if boundaries[i] <= int64(c) {
				want = i
			}
		}
		if c < HeaderLen {
			want = 0
		}
		if res.Records != want || len(got) != want {
			t.Fatalf("cut %d: replayed %d records, want %d", c, res.Records, want)
		}
		for i := 0; i < want; i++ {
			if !bytes.Equal(got[i], payloads[i]) {
				t.Fatalf("cut %d: record %d = %q, want %q", c, i, got[i], payloads[i])
			}
		}
		atBoundary := int64(c) == boundaries[want] && c >= HeaderLen
		if res.Truncated == atBoundary {
			t.Fatalf("cut %d: Truncated = %v at boundary %v", c, res.Truncated, atBoundary)
		}
	}
}

// TestJournalZeroFilledTail: a power cut can persist a file's length
// but not its data, leaving zero bytes where records were. Cut at every
// record boundary and zero-filled past it, a journal replays the
// records before the cut and reports the tail torn; the segment cursor
// stops at the same offset; and an all-zero header is a torn header.
func TestJournalZeroFilledTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "j.wal")
	payloads := [][]byte{[]byte("one"), {0}, []byte("three-3")}
	appendAll(t, path, Options{Sync: SyncNone}, payloads...)
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	zeroed := filepath.Join(dir, "zeroed.wal")
	at := int64(HeaderLen)
	for i := 0; i <= len(payloads); i++ {
		for _, zeros := range []int{recordHeaderLen, 64} {
			data := append(full[:at:at], make([]byte, zeros)...)
			if err := os.WriteFile(zeroed, data, 0o644); err != nil {
				t.Fatal(err)
			}
			got, res := replayAll(t, zeroed)
			if len(got) != i || !res.Truncated || res.ValidBytes != at {
				t.Fatalf("%d zero bytes after record %d: replayed %d, %+v", zeros, i, len(got), res)
			}
			r, err := OpenSegment(zeroed, 0)
			if err != nil {
				t.Fatal(err)
			}
			for range i {
				if _, err := r.Next(); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := r.Next(); !errors.Is(err, ErrCorrupt) || r.Offset() != at {
				t.Fatalf("%d zero bytes after record %d: segment at %d: %v, want ErrCorrupt at %d", zeros, i, r.Offset(), err, at)
			}
			r.Close()
		}
		if i < len(payloads) {
			at += int64(recordHeaderLen + len(payloads[i]))
		}
	}

	if err := os.WriteFile(zeroed, make([]byte, len(full)), 0o644); err != nil {
		t.Fatal(err)
	}
	if got, res := replayAll(t, zeroed); len(got) != 0 || !res.Truncated || res.ValidBytes != 0 {
		t.Fatalf("zero-filled header: replayed %d, %+v", len(got), res)
	}
}

func TestJournalCorruptRecord(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "j.wal")
	appendAll(t, path, Options{Sync: SyncNone}, []byte("first"), []byte("second"))
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte of the second record: replay keeps the first.
	mut := append([]byte(nil), full...)
	mut[len(mut)-1] ^= 0xff
	bad := filepath.Join(dir, "bad.wal")
	if err := os.WriteFile(bad, mut, 0o644); err != nil {
		t.Fatal(err)
	}
	got, res := replayAll(t, bad)
	if res.Records != 1 || !res.Truncated || len(got) != 1 || string(got[0]) != "first" {
		t.Fatalf("corrupt tail: records=%d truncated=%v got=%q", res.Records, res.Truncated, got)
	}

	// Damage a crash cannot explain is loud: a foreign magic or a
	// future format version must error, not read as an empty journal —
	// recovery would otherwise silently discard acknowledged records.
	for _, mutate := range []func([]byte){
		func(b []byte) { b[0] ^= 0xff },          // magic
		func(b []byte) { b[HeaderLen-1] = 0x7f }, // version byte
	} {
		mut = append([]byte(nil), full...)
		mutate(mut)
		if err := os.WriteFile(bad, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Replay(bad, func([]byte) error { return nil }); err == nil {
			t.Fatal("foreign/future header replayed without error")
		}
	}
}

func TestJournalConcurrentAppend(t *testing.T) {
	for _, mode := range []SyncMode{SyncBatch, SyncAlways} {
		t.Run(mode.String(), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "j.wal")
			j, err := Create(path, Options{Sync: mode})
			if err != nil {
				t.Fatal(err)
			}
			const workers, per = 8, 50
			var wg sync.WaitGroup
			errs := make(chan error, workers)
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < per; i++ {
						if err := j.Append(fmt.Appendf(nil, "w%d-%d", w, i)); err != nil {
							errs <- err
							return
						}
					}
				}(w)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			got, res := replayAll(t, path)
			if len(got) != workers*per || res.Truncated {
				t.Fatalf("replayed %d records (truncated=%v), want %d", len(got), res.Truncated, workers*per)
			}
			seen := make(map[string]bool, len(got))
			for _, p := range got {
				if seen[string(p)] {
					t.Fatalf("duplicate record %q", p)
				}
				seen[string(p)] = true
			}
		})
	}
}

func TestJournalOversizeRecord(t *testing.T) {
	j, err := Create(filepath.Join(t.TempDir(), "j.wal"), Options{Sync: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if err := j.Append(make([]byte, MaxRecord+1)); err == nil {
		t.Fatal("oversize record accepted")
	}
}

// TestJournalCloseIdempotent: concurrent and repeated Close calls are
// safe, an empty journal still gets its header flushed, and appends
// after Close error instead of vanishing.
func TestJournalCloseIdempotent(t *testing.T) {
	for _, mode := range []SyncMode{SyncNone, SyncBatch, SyncAlways} {
		t.Run(mode.String(), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "j.wal")
			j, err := Create(path, Options{Sync: mode})
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			for i := 0; i < 4; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if err := j.Close(); err != nil {
						t.Error(err)
					}
				}()
			}
			wg.Wait()
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			if err := j.Append([]byte("late")); err == nil {
				t.Fatal("append after close succeeded")
			}
			// Even with no records the header must be on disk.
			_, res := replayAll(t, path)
			if res.Truncated || res.ValidBytes != int64(HeaderLen) {
				t.Fatalf("empty closed journal: %+v", res)
			}
		})
	}
}

// TestAppendNoWaitSharedCommit: records sequenced via AppendNoWait and
// awaited concurrently via WaitSynced are all durable and in order —
// the group-commit shape schedd's admission path uses.
func TestAppendNoWaitSharedCommit(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	j, err := Create(path, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	const n = 32
	var (
		mu      sync.Mutex // stands in for schedd's admitMu: fixes record order
		counter int
		wg      sync.WaitGroup
	)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			mu.Lock()
			stamp := counter
			counter++
			seq, err := j.AppendNoWait(fmt.Appendf(nil, "rec-%02d", stamp))
			mu.Unlock()
			if err != nil {
				t.Error(err)
				return
			}
			if err := j.WaitSynced(seq); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	got, res := replayAll(t, path)
	if len(got) != n || res.Truncated {
		t.Fatalf("replayed %d records (truncated=%v), want %d", len(got), res.Truncated, n)
	}
	for i, p := range got {
		if want := fmt.Sprintf("rec-%02d", i); string(p) != want {
			t.Fatalf("record %d = %q, want %q (order not fixed by the sequencing lock)", i, p, want)
		}
	}
}

// TestAppendBatchNoWait: a batch lands as contiguous in-order records,
// one WaitSynced on the returned (last) sequence covers the whole
// batch, concurrent batches never interleave, and invalid batches —
// empty, or containing an oversize record — are rejected whole.
func TestAppendBatchNoWait(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	j, err := Create(path, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}

	if _, err := j.AppendBatchNoWait(); err == nil {
		t.Fatal("empty batch accepted")
	}
	if _, err := j.AppendBatchNoWait([]byte("ok"), nil); err == nil {
		t.Fatal("batch with an empty record accepted")
	}
	if _, err := j.AppendBatchNoWait([]byte("ok"), make([]byte, MaxRecord+1)); err == nil {
		t.Fatal("batch with an oversize record accepted")
	}
	if got, _ := replayAll(t, path); len(got) != 0 {
		t.Fatalf("rejected batches left %d records behind", len(got))
	}

	const batches, per = 16, 5
	var wg sync.WaitGroup
	for g := 0; g < batches; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			recs := make([][]byte, per)
			for i := range recs {
				recs[i] = fmt.Appendf(nil, "g%02d-%d", g, i)
			}
			seq, err := j.AppendBatchNoWait(recs...)
			if err != nil {
				t.Error(err)
				return
			}
			if err := j.WaitSynced(seq); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	got, res := replayAll(t, path)
	if len(got) != batches*per || res.Truncated {
		t.Fatalf("replayed %d records (truncated=%v), want %d", len(got), res.Truncated, batches*per)
	}
	// Each goroutine's batch must be contiguous and in order, whatever
	// the inter-batch ordering came out as.
	for i := 0; i < len(got); i += per {
		var g int
		if _, err := fmt.Sscanf(string(got[i]), "g%02d-0", &g); err != nil {
			t.Fatalf("record %d = %q is not a batch head", i, got[i])
		}
		for k := 0; k < per; k++ {
			if want := fmt.Sprintf("g%02d-%d", g, k); string(got[i+k]) != want {
				t.Fatalf("record %d = %q, want %q (batch interleaved)", i+k, got[i+k], want)
			}
		}
	}
}

func TestParseSyncMode(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want SyncMode
	}{{"always", SyncAlways}, {"Batch", SyncBatch}, {"none", SyncNone}} {
		got, err := ParseSyncMode(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseSyncMode(%q) = %v, %v", tc.in, got, err)
		}
		if got.String() == "" {
			t.Errorf("%v has no name", got)
		}
	}
	if _, err := ParseSyncMode("sometimes"); err == nil {
		t.Error("bogus mode accepted")
	}
}

// TestCreateRefusesUnknownSyncMode: a mode that is none of the three
// would never fsync while WaitSynced reported every record durable, so
// Create refuses it, and leaves a journal already at the path as it was.
func TestCreateRefusesUnknownSyncMode(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	appendAll(t, path, Options{Sync: SyncNone}, []byte("kept"))
	for _, mode := range []SyncMode{SyncNone + 1, 7, -1} {
		if j, err := Create(path, Options{Sync: mode}); err == nil {
			j.Close()
			t.Fatalf("Create accepted %v", mode)
		}
	}
	if got, _ := replayAll(t, path); len(got) != 1 || string(got[0]) != "kept" {
		t.Fatalf("a refused Create left the journal holding %q", got)
	}
}

func TestReplayMissingFile(t *testing.T) {
	if _, err := Replay(filepath.Join(t.TempDir(), "nope.wal"), func([]byte) error { return nil }); err == nil {
		t.Fatal("missing file did not error")
	}
}

func TestStoreSnapshots(t *testing.T) {
	s, err := OpenStore(filepath.Join(t.TempDir(), "data"))
	if err != nil {
		t.Fatal(err)
	}
	if gen, payload, err := s.LatestSnapshot(); err != nil || gen != 0 || payload != nil {
		t.Fatalf("empty store: gen=%d payload=%v err=%v", gen, payload, err)
	}
	if err := s.WriteSnapshot(1, []byte("state-1")); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteSnapshot(2, []byte("state-2")); err != nil {
		t.Fatal(err)
	}
	gen, payload, err := s.LatestSnapshot()
	if err != nil || gen != 2 || string(payload) != "state-2" {
		t.Fatalf("latest: gen=%d payload=%q err=%v", gen, payload, err)
	}

	// Corrupt the newest snapshot: recovery falls back to gen 1.
	data, err := os.ReadFile(s.SnapshotPath(2))
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(s.SnapshotPath(2), data, 0o644); err != nil {
		t.Fatal(err)
	}
	gen, payload, err = s.LatestSnapshot()
	if err != nil || gen != 1 || string(payload) != "state-1" {
		t.Fatalf("fallback: gen=%d payload=%q err=%v", gen, payload, err)
	}

	// GC keeps only generations >= keep.
	if err := s.WriteSnapshot(3, []byte("state-3")); err != nil {
		t.Fatal(err)
	}
	j, err := Create(s.JournalPath(3), Options{Sync: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	s.RemoveGenerationsBelow(3)
	if _, err := os.Stat(s.SnapshotPath(1)); !os.IsNotExist(err) {
		t.Fatal("gen-1 snapshot survived GC")
	}
	gen, payload, err = s.LatestSnapshot()
	if err != nil || gen != 3 || string(payload) != "state-3" {
		t.Fatalf("after GC: gen=%d payload=%q err=%v", gen, payload, err)
	}
	if _, err := os.Stat(s.JournalPath(3)); err != nil {
		t.Fatal("gen-3 journal removed by GC")
	}
}

// TestStoreRefusesAllCorrupt: when snapshots exist but none validates,
// LatestSnapshot must error rather than report an empty store — a
// silent empty boot would discard every journaled acknowledgement.
func TestStoreRefusesAllCorrupt(t *testing.T) {
	s, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.WriteSnapshot(1, []byte("only-state")); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(s.SnapshotPath(1))
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(s.SnapshotPath(1), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.LatestSnapshot(); err == nil {
		t.Fatal("store with only corrupt snapshots reported as empty")
	}
}

// TestStoreExclusiveLock: a second OpenStore on a live directory must
// fail — two processes journaling into one dir would corrupt each
// other — and Close releases the lock for the next incarnation.
func TestStoreExclusiveLock(t *testing.T) {
	dir := t.TempDir()
	s1, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OpenStore(dir); err == nil {
		t.Fatal("second OpenStore on a locked directory succeeded")
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := OpenStore(dir)
	if err != nil {
		t.Fatalf("reopen after Close: %v", err)
	}
	s2.Close()
}

// TestStoreSweepsTempFiles: snap-*.tmp files orphaned by a crash
// mid-WriteSnapshot are removed on the next OpenStore.
func TestStoreSweepsTempFiles(t *testing.T) {
	dir := t.TempDir()
	orphan := filepath.Join(dir, "snap-12345.tmp")
	if err := os.WriteFile(orphan, []byte("half-written"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenStore(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Fatal("orphaned temp file survived OpenStore")
	}
}
