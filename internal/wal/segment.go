package wal

// The segment-read API: a byte-offset cursor over a journal file, built
// for replication. A SegmentReader reads complete, checksummed records
// starting from any record boundary and reports the offset after each
// one, so a follower can resume a stream from exactly where it stopped.
// Unlike Replay — which consumes a dead journal once, front to back — a
// SegmentReader tails a file that may still be growing: an incomplete
// record at the tail is "no data yet" (ErrNoRecord, retryable after the
// writer flushes more bytes), while a CRC mismatch or an impossible
// length on fully-present bytes is real corruption (ErrCorrupt,
// terminal). Appenders are untouched; reads go through pread and never
// move the writer's file position.

import (
	"errors"
	"fmt"
	"io"
	"math"
	"os"

	"carbonshift/internal/frame"
)

// ErrNoRecord reports that the file holds no complete record at the
// cursor — the tail is still being written (or flushed). Retry after
// the writer makes progress.
var ErrNoRecord = errors.New("wal: no complete record at cursor")

// ErrCorrupt reports bytes at the cursor that can never become a valid
// record no matter how much the file grows: a CRC mismatch on a fully
// present record, a length prefix past MaxRecord, or a zero-length
// record (a zero-filled tail).
var ErrCorrupt = errors.New("wal: corrupt record at cursor")

// SegmentReader is a record cursor over one journal file. It is not
// safe for concurrent use; a replication stream owns one.
type SegmentReader struct {
	f   *os.File
	sr  *io.SectionReader // pread view of f that Next seeks to off
	off int64
	buf []byte
}

// OpenSegment opens a journal file for cursor reads starting at byte
// offset. Offset 0 starts at the first record (the header is validated
// first); any other offset must be ≥ HeaderLen and land on a record
// boundary — a misaligned offset surfaces later as ErrCorrupt, never a
// panic. The file may still be growing; the reader sees appended bytes
// as the writer flushes them.
func OpenSegment(path string, offset int64) (*SegmentReader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	r := &SegmentReader{f: f, sr: io.NewSectionReader(f, 0, math.MaxInt64), off: offset}
	if offset == 0 {
		if err := readHeader(r.sr, path); err != nil {
			f.Close()
			return nil, err
		}
		r.off = int64(HeaderLen)
	} else if offset < int64(HeaderLen) {
		f.Close()
		return nil, fmt.Errorf("wal: segment offset %d is inside the header", offset)
	}
	return r, nil
}

// Offset returns the cursor: the byte offset of the next unread record.
func (r *SegmentReader) Offset() int64 { return r.off }

// Next reads the record at the cursor and advances past it. It returns
// ErrNoRecord when the file ends before a complete record (retryable on
// a live journal) and ErrCorrupt when the bytes present can never form
// one. The payload slice is reused across calls — callers must not
// retain it.
func (r *SegmentReader) Next() ([]byte, error) {
	if _, err := r.sr.Seek(r.off, io.SeekStart); err != nil {
		return nil, err
	}
	payload, err := readRecord(r.sr, r.buf)
	switch {
	case err == nil:
	case err == io.EOF || errors.Is(err, frame.ErrShort):
		return nil, ErrNoRecord
	case errors.Is(err, frame.ErrOversize), errors.Is(err, frame.ErrCorrupt):
		return nil, fmt.Errorf("%w: offset %d: %v", ErrCorrupt, r.off, err)
	default:
		return nil, err
	}
	r.buf = payload
	r.off += int64(recordHeaderLen + len(payload))
	return payload, nil
}

// Size returns the file's current length — the upper bound for valid
// cursors into it right now.
func (r *SegmentReader) Size() (int64, error) {
	st, err := r.f.Stat()
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

// Close releases the file handle.
func (r *SegmentReader) Close() error { return r.f.Close() }
