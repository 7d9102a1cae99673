// Package repl is the replication layer over internal/wal's journal:
// a primary-side Source that serves journal records as a resumable,
// long-polled HTTP byte stream, and a follower-side Tail that applies
// them — in exact journal order — into its own copy of the scheduler
// state. Because the journal is a deterministic record of every
// state-changing fleet event (admissions and hour watermarks, in fleet-
// event order), a follower that has applied the stream up to a cursor
// holds state byte-identical to the primary's at that cursor; the
// replication equivalence tests in internal/schedd pin this.
//
// The wire protocol (version 1) is a sequence of CRC-framed messages:
//
//	[ type byte | len uint32 BE | crc32(payload) uint32 BE | payload ]
//
//	'H' hello      magic "CSRP" | version | gen uvarint | off uvarint —
//	               opens every stream, echoing the cursor it starts at
//	'R' record     nextOff uvarint | raw journal record bytes; the
//	               cursor after applying is (gen, nextOff)
//	'G' rotate     gen uvarint | off uvarint — the journal rotated; the
//	               stream continues in the new generation
//	'B' heartbeat  hour uvarint | gen uvarint | off uvarint — keepalive
//	               carrying the primary's fleet hour and live cursor
//	'E' end        reason string — the source cannot continue from this
//	               cursor; the follower must bootstrap from a snapshot
//
// A cursor is (generation, byte offset into that generation's journal
// file). Cursors are only ever minted by the source — the hello frame,
// record nextOffs, and rotate frames — so any cursor a follower
// presents is a record boundary the primary once served. Frames are
// individually checksummed so a truncated or corrupted stream is
// detected at the frame where it happens; the decoder never panics on
// hostile input (see FuzzReplStreamDecode). After the type byte a frame
// is an internal/frame record and its payload a run of internal/frame
// fields; that package holds the mechanics, this one the verdicts.
//
// Observability: Tail.Register (metrics.go) exposes the session's
// counters as repl_* families on a metrics registry — records
// applied, snapshot bootstraps, stream reconnects, and the primary's
// heartbeat hour — the inputs behind the follower apply-rate and
// replication-lag panels in examples/dashboard/ and the
// ScheddReplicationLagHigh runbook entry.
//
// Tracing rides the records, not the frames: 'R' frames embed journal
// record bytes verbatim, and a sampled request's trace ID is part of
// the primary's admit record payload (internal/schedd's codec), so the
// stream carries it with no protocol change — the follower's apply
// spans join the originating trace under the same trace ID, and this
// wire format (pinned by the stream golden test) is untouched.
package repl

import (
	"bufio"
	"errors"
	"fmt"
	"io"

	"carbonshift/internal/frame"
	"carbonshift/internal/wal"
)

// Protocol constants.
const (
	streamMagic   = "CSRP"
	streamVersion = 1

	frameHello     = 'H'
	frameRecord    = 'R'
	frameRotate    = 'G'
	frameHeartbeat = 'B'
	frameEnd       = 'E'

	// frameHeaderLen is type + length + CRC.
	frameHeaderLen = 1 + frame.HeaderLen
	// maxFramePayload bounds one frame: a journal record plus cursor
	// overhead. A hostile length prefix past it is corruption, never an
	// allocation.
	maxFramePayload = wal.MaxRecord + 64
)

// ErrBadFrame reports a frame that can never be valid: oversized
// length, CRC mismatch, unknown type, or a malformed payload.
var ErrBadFrame = errors.New("repl: bad frame")

// Cursor addresses a position in the primary's journal history.
type Cursor struct {
	Generation uint64
	Offset     int64
}

func (c Cursor) String() string {
	return fmt.Sprintf("gen %d offset %d", c.Generation, c.Offset)
}

// Frame is one decoded stream message. Which fields are meaningful
// depends on Type (see the package comment); Record aliases the
// decoder's buffer and must not be retained across Next calls.
type Frame struct {
	Type   byte
	Cursor Cursor // hello: start; record: cursor AFTER applying; rotate/heartbeat: live cursor
	Hour   int    // heartbeat: the primary's current fleet hour
	Record []byte // record: raw journal record payload
	Reason string // end: why the stream cannot continue
}

// --- encoding ---

// beginFrame appends the type byte and reserves the record header; the
// caller appends the payload fields in place and endFrame back-fills
// the header at hdr — no intermediate payload slice.
func beginFrame(buf []byte, typ byte) (e frame.Enc, hdr int) {
	return frame.Enc{Buf: append(buf, typ, 0, 0, 0, 0, 0, 0, 0, 0)}, len(buf) + 1
}

func endFrame(buf []byte, hdr int) []byte {
	frame.PutHeader(buf[hdr:], buf[hdr+frame.HeaderLen:])
	return buf
}

func putCursor(e *frame.Enc, c Cursor) {
	e.Uvarint(c.Generation)
	e.Uvarint(uint64(c.Offset))
}

// AppendHello appends the stream-opening frame for a cursor.
func AppendHello(buf []byte, c Cursor) []byte {
	e, hdr := beginFrame(buf, frameHello)
	e.Buf = append(e.Buf, streamMagic...)
	e.Byte(streamVersion)
	putCursor(&e, c)
	return endFrame(e.Buf, hdr)
}

// AppendRecord appends one journal record with the cursor that follows
// it. Into a buffer with room for it, it allocates nothing.
func AppendRecord(buf []byte, nextOffset int64, record []byte) []byte {
	e, hdr := beginFrame(buf, frameRecord)
	e.Uvarint(uint64(nextOffset))
	e.Buf = append(e.Buf, record...)
	return endFrame(e.Buf, hdr)
}

// AppendRotate appends a generation-rotation frame.
func AppendRotate(buf []byte, c Cursor) []byte {
	e, hdr := beginFrame(buf, frameRotate)
	putCursor(&e, c)
	return endFrame(e.Buf, hdr)
}

// AppendHeartbeat appends a keepalive with the primary's fleet hour and
// live cursor.
func AppendHeartbeat(buf []byte, hour int, c Cursor) []byte {
	e, hdr := beginFrame(buf, frameHeartbeat)
	e.Int(hour)
	putCursor(&e, c)
	return endFrame(e.Buf, hdr)
}

// AppendEnd appends the stream-terminating frame.
func AppendEnd(buf []byte, reason string) []byte {
	e, hdr := beginFrame(buf, frameEnd)
	return endFrame(append(e.Buf, reason...), hdr)
}

// --- decoding ---

// FrameReader decodes a frame stream incrementally.
type FrameReader struct {
	r   *bufio.Reader
	buf []byte
}

// NewFrameReader wraps an io.Reader (typically a streaming HTTP
// response body) in a frame decoder.
func NewFrameReader(r io.Reader) *FrameReader {
	return &FrameReader{r: bufio.NewReaderSize(r, 1<<16)}
}

// Next decodes one frame. io.EOF means the stream ended cleanly between
// frames; io.ErrUnexpectedEOF means it was cut mid-frame; ErrBadFrame
// wraps everything a well-formed stream can never contain. The returned
// Frame's Record aliases an internal buffer reused by the next call.
func (fr *FrameReader) Next() (Frame, error) {
	typ, err := fr.r.ReadByte()
	if err != nil {
		return Frame{}, err // io.EOF here = clean end of stream
	}
	payload, err := frame.ReadRecord(fr.r, fr.buf, maxFramePayload)
	switch {
	case err == nil:
	case err == io.EOF || errors.Is(err, frame.ErrShort):
		return Frame{}, io.ErrUnexpectedEOF
	case errors.Is(err, frame.ErrOversize), errors.Is(err, frame.ErrCorrupt):
		return Frame{}, fmt.Errorf("%w: %q frame: %v", ErrBadFrame, typ, err)
	default:
		return Frame{}, err
	}
	fr.buf = payload
	return decodeFrame(typ, payload)
}

func decodeFrame(typ byte, payload []byte) (Frame, error) {
	f := Frame{Type: typ}
	d := frame.Dec{Data: payload}
	switch typ {
	case frameHello:
		if len(payload) < len(streamMagic) || string(payload[:len(streamMagic)]) != streamMagic {
			return f, fmt.Errorf("%w: hello without magic", ErrBadFrame)
		}
		d = frame.Dec{Data: payload[len(streamMagic):]}
		if v := d.Byte(); d.Err == nil && v != streamVersion {
			return f, fmt.Errorf("%w: protocol version %d (want %d)", ErrBadFrame, v, streamVersion)
		}
		f.Cursor = readCursor(&d)
	case frameRecord:
		f.Cursor.Offset = int64(d.Uvarint())
		f.Record = d.Rest()
	case frameRotate:
		f.Cursor = readCursor(&d)
	case frameHeartbeat:
		hour := d.Uvarint()
		if hour > 1<<32 {
			return f, fmt.Errorf("%w: heartbeat hour", ErrBadFrame)
		}
		f.Hour = int(hour)
		f.Cursor = readCursor(&d)
	case frameEnd:
		f.Reason = string(payload)
		return f, nil
	default:
		return f, fmt.Errorf("%w: unknown frame type %q", ErrBadFrame, typ)
	}
	if err := d.Done(); err != nil {
		return f, fmt.Errorf("%w: %q frame: %v", ErrBadFrame, typ, err)
	}
	// The conversion back is exact, so this also refuses an offset that
	// wrapped negative.
	if uint64(f.Cursor.Offset) > 1<<62 {
		return f, fmt.Errorf("%w: %q frame: cursor offset out of range", ErrBadFrame, typ)
	}
	return f, nil
}

func readCursor(d *frame.Dec) Cursor {
	return Cursor{Generation: d.Uvarint(), Offset: int64(d.Uvarint())}
}
