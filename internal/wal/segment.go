package wal

// The journal's one reader: a byte-offset cursor over a journal file.
// A SegmentReader reads complete, checksummed records starting from any
// record boundary and reports the offset after each one, so a follower
// can resume a stream from exactly where it stopped, and Replay is one
// pass of it from the header to the first record it cannot read. The
// file may still be growing: an incomplete record at the tail is "no
// data yet" (ErrNoRecord, retryable after the writer flushes more
// bytes), while a CRC mismatch or an impossible length on fully-present
// bytes is real corruption (ErrCorrupt, terminal). Appenders are
// untouched; the reader has its own file handle and never moves the
// writer's file position.

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"

	"carbonshift/internal/frame"
)

// readBufSize is a SegmentReader's read buffer. Every replication
// stream holds one for as long as it is open.
const readBufSize = 32 << 10

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
	br  *bufio.Reader // reads f from off onwards
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
	r := &SegmentReader{br: bufio.NewReaderSize(nil, readBufSize)}
	if err := r.Reopen(path, offset); err != nil {
		return nil, err
	}
	return r, nil
}

// Reopen moves r to another journal file, at offset as OpenSegment
// takes it, closing the file r read and keeping its buffers: a
// replication stream follows the journal across rotations on one
// reader. If the new file cannot be read from offset, r is left as it
// was.
func (r *SegmentReader) Reopen(path string, offset int64) error {
	if offset != 0 && offset < int64(HeaderLen) {
		return fmt.Errorf("wal: segment offset %d is inside the header", offset)
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	if offset == 0 {
		err = readHeader(f, path)
		offset = int64(HeaderLen)
	} else {
		_, err = f.Seek(offset, io.SeekStart)
	}
	if err != nil {
		f.Close()
		return err
	}
	if r.f != nil {
		r.f.Close()
	}
	r.f, r.off = f, offset
	r.br.Reset(f)
	return nil
}

// Offset returns the cursor: the byte offset of the next unread record.
func (r *SegmentReader) Offset() int64 { return r.off }

// Next reads the record at the cursor and advances past it. It returns
// ErrNoRecord when the file ends before a complete record (retryable on
// a live journal) and ErrCorrupt when the bytes present can never form
// one. The payload slice is reused across calls — callers must not
// retain it.
func (r *SegmentReader) Next() ([]byte, error) {
	payload, err := frame.ReadRecord(r.br, r.buf, MaxRecord)
	if err == nil && len(payload) == 0 {
		// AppendBatchNoWait refuses an empty payload, so eight zero
		// bytes — a zero length and the empty payload's zero CRC — are
		// never a record the journal wrote but a zero-filled tail.
		err = fmt.Errorf("%w: zero-length record", frame.ErrCorrupt)
	}
	switch {
	case err == nil:
		r.buf = payload
		r.off += int64(recordHeaderLen + len(payload))
		return payload, nil
	case err == io.EOF || errors.Is(err, frame.ErrShort):
		err = ErrNoRecord
	case errors.Is(err, frame.ErrOversize), errors.Is(err, frame.ErrCorrupt):
		err = fmt.Errorf("%w: offset %d: %v", ErrCorrupt, r.off, err)
	}
	// Drop what was read past the cursor: a record cut short now may be
	// whole on the next call.
	if _, serr := r.f.Seek(r.off, io.SeekStart); serr != nil {
		return nil, serr
	}
	r.br.Reset(r.f)
	return nil, err
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

// readHeader consumes and checks the journal file header. A file that
// ends inside it, or whose header is all zero bytes — on the same
// basis as a zero-length record: the file's length reached the disk
// and its first bytes did not — wraps frame.ErrShort; a foreign magic
// or an unsupported version is damage no crash explains.
func readHeader(r io.Reader, path string) error {
	var hdr [HeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return fmt.Errorf("wal: %s: short header: %w", path, frame.ErrShort)
		}
		return fmt.Errorf("wal: read %s: %w", path, err)
	}
	if hdr == [HeaderLen]byte{} {
		return fmt.Errorf("wal: %s: zero-filled header: %w", path, frame.ErrShort)
	}
	if string(hdr[:len(journalMagic)]) != journalMagic {
		return fmt.Errorf("wal: %s is not a journal (bad magic %q)", path, hdr[:len(journalMagic)])
	}
	if v := hdr[len(journalMagic)]; v != journalVersion {
		return fmt.Errorf("wal: %s: unsupported journal version %d (want %d)", path, v, journalVersion)
	}
	return nil
}

// ReplayResult reports what Replay found.
type ReplayResult struct {
	// Records is the number of valid records delivered to the callback.
	Records int
	// ValidBytes is the length of the valid prefix of the file —
	// header plus complete, checksummed records. Everything past it is
	// a torn or corrupt tail.
	ValidBytes int64
	// Truncated reports that the file held bytes past ValidBytes that
	// did not form a valid record — a torn or zero-filled header, a torn
	// write, an overrunning length prefix, a CRC mismatch or a
	// zero-length record: the expected signatures of a crash mid-append
	// or of a power cut that persisted a file's length but not its data.
	Truncated bool
}

// Replay reads a journal file and invokes fn for each valid record in
// order. It stops without error at the first torn or corrupt record
// (see ReplayResult) — the expected wreckage of a crash. Damage that a
// crash mid-append cannot explain is an error instead of a silent
// empty replay: a foreign magic, an unsupported format version, or an
// I/O failure mid-read — a caller that treated those as a benign torn
// tail would discard (and later delete) a journal full of
// acknowledged records. A callback error also aborts the replay and
// is returned. The payload slice is reused across calls — fn must not
// retain it.
func Replay(path string, fn func(payload []byte) error) (ReplayResult, error) {
	r, err := OpenSegment(path, 0)
	if errors.Is(err, frame.ErrShort) {
		// A short or zero-filled header — a crash before the first
		// flush reached the disk: nothing is replayable.
		return ReplayResult{Truncated: true}, nil
	}
	if err != nil {
		return ReplayResult{}, err
	}
	defer r.Close()
	res := ReplayResult{ValidBytes: r.Offset()}
	for {
		payload, err := r.Next()
		switch {
		case err == nil:
		case errors.Is(err, ErrNoRecord):
			// A dead journal ends on a record boundary unless a crash
			// tore its last write.
			size, err := r.Size()
			res.Truncated = size > res.ValidBytes
			return res, err
		case errors.Is(err, ErrCorrupt):
			res.Truncated = true
			return res, nil
		default:
			return res, fmt.Errorf("wal: read %s: %w", path, err)
		}
		if err := fn(payload); err != nil {
			return res, err
		}
		res.Records++
		res.ValidBytes = r.Offset()
	}
}
