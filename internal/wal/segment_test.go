package wal

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// readFrom drains a segment reader until ErrNoRecord, copying payloads.
func readFrom(t *testing.T, path string, offset int64) ([][]byte, int64) {
	t.Helper()
	r, err := OpenSegment(path, offset)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var got [][]byte
	for {
		p, err := r.Next()
		if errors.Is(err, ErrNoRecord) {
			return got, r.Offset()
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, append([]byte(nil), p...))
	}
}

func TestSegmentReaderRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	payloads := [][]byte{[]byte("one"), {0}, []byte("three-3"), {0xff, 0x00}}
	appendAll(t, path, Options{Sync: SyncNone}, payloads...)

	got, end := readFrom(t, path, 0)
	if len(got) != len(payloads) {
		t.Fatalf("read %d records, want %d", len(got), len(payloads))
	}
	for i := range payloads {
		if !bytes.Equal(got[i], payloads[i]) {
			t.Fatalf("record %d = %q, want %q", i, got[i], payloads[i])
		}
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if end != fi.Size() {
		t.Fatalf("cursor ended at %d, file is %d bytes", end, fi.Size())
	}
}

// TestSegmentReaderResume: a cursor saved mid-stream resumes with
// exactly the remaining records — the replication resume invariant.
func TestSegmentReaderResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	payloads := [][]byte{[]byte("a"), []byte("bb"), []byte("ccc"), []byte("dddd")}
	appendAll(t, path, Options{Sync: SyncNone}, payloads...)

	r, err := OpenSegment(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err != nil {
		t.Fatal(err)
	}
	cursor := r.Offset()
	r.Close()

	rest, _ := readFrom(t, path, cursor)
	if len(rest) != 2 || !bytes.Equal(rest[0], payloads[2]) || !bytes.Equal(rest[1], payloads[3]) {
		t.Fatalf("resume at %d read %q", cursor, rest)
	}
}

// TestSegmentReaderTailGrowth: records appended (and flushed) after a
// reader hits ErrNoRecord become visible to the same reader.
func TestSegmentReaderTailGrowth(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	j, err := Create(path, Options{Sync: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if err := j.Append([]byte("first")); err != nil {
		t.Fatal(err)
	}
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}

	r, err := OpenSegment(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if p, err := r.Next(); err != nil || string(p) != "first" {
		t.Fatalf("Next = %q, %v", p, err)
	}
	if _, err := r.Next(); !errors.Is(err, ErrNoRecord) {
		t.Fatalf("tail read err = %v, want ErrNoRecord", err)
	}

	if err := j.Append([]byte("second")); err != nil {
		t.Fatal(err)
	}
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	if p, err := r.Next(); err != nil || string(p) != "second" {
		t.Fatalf("after growth Next = %q, %v", p, err)
	}
}

// TestSegmentReaderTornTail: a partially written record is ErrNoRecord
// (retryable), not corruption.
func TestSegmentReaderTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	appendAll(t, path, Options{Sync: SyncNone}, []byte("whole"))
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Append a record header promising 100 bytes, then only 3 of them.
	torn := append(append([]byte(nil), full...), 0, 0, 0, 100, 1, 2, 3, 4, 'x', 'y', 'z')
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	r, err := OpenSegment(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if p, err := r.Next(); err != nil || string(p) != "whole" {
		t.Fatalf("Next = %q, %v", p, err)
	}
	cursor := r.Offset()
	if _, err := r.Next(); !errors.Is(err, ErrNoRecord) {
		t.Fatalf("torn tail err = %v, want ErrNoRecord", err)
	}
	if r.Offset() != cursor {
		t.Fatalf("failed read moved the cursor from %d to %d", cursor, r.Offset())
	}
}

// TestSegmentReaderCorruption: a CRC mismatch and an oversized length
// are terminal, and a misaligned cursor fails as corruption rather
// than panicking.
func TestSegmentReaderCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	appendAll(t, path, Options{Sync: SyncNone}, []byte("payload-one"), []byte("payload-two"))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Flip a payload byte of the first record: CRC mismatch.
	bad := append([]byte(nil), data...)
	bad[HeaderLen+recordHeaderLen] ^= 0xff
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := OpenSegment(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("crc flip err = %v, want ErrCorrupt", err)
	}
	r.Close()

	// Hostile length prefix: larger than MaxRecord must be terminal, not
	// an allocation.
	huge := append([]byte(nil), data[:HeaderLen]...)
	huge = append(huge, 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0)
	if err := os.WriteFile(path, huge, 0o644); err != nil {
		t.Fatal(err)
	}
	r, err = OpenSegment(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("oversize length err = %v, want ErrCorrupt", err)
	}
	r.Close()

	// Misaligned cursor into the middle of a record.
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	r, err = OpenSegment(path, int64(HeaderLen+3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err == nil {
		t.Fatal("misaligned cursor read a record")
	}
	r.Close()
}

func TestSegmentReaderOpenErrors(t *testing.T) {
	dir := t.TempDir()
	if _, err := OpenSegment(filepath.Join(dir, "missing.wal"), 0); err == nil {
		t.Error("opened a missing file")
	}
	path := filepath.Join(dir, "j.wal")
	appendAll(t, path, Options{Sync: SyncNone}, []byte("x"))
	if _, err := OpenSegment(path, 2); err == nil {
		t.Error("accepted an offset inside the header")
	}
	if err := os.WriteFile(path, []byte("NOPE\x01rest"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenSegment(path, 0); err == nil {
		t.Error("accepted a foreign magic")
	}
}
