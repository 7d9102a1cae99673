// Package frame owns the three byte layouts every binary format in this
// repository is built from, and the one taxonomy of what can be wrong
// with them:
//
//	record    [ len uint32 BE | crc32(payload) uint32 BE | payload ]
//	          PutHeader, ReadRecord
//	envelope  magic | version byte | body | crc32(everything before)
//	          Seal, Open
//	fields    uvarint, zigzag varint, byte, length-prefixed string,
//	          float64 as 8 big-endian IEEE-754 bytes
//	          Enc, Dec
//
// It knows layouts only. Magic strings, accepted versions, size limits
// and the verdict — whether a short record is a torn tail, "no data
// yet" or a 400 — stay with the format that defines them: each caller
// is one switch on ErrShort, ErrCorrupt and ErrOversize. The journal
// (internal/wal), snapshot file, replication stream (internal/repl),
// fleet image (internal/sched) and binary submit/ack frames
// (internal/schedd) are all written and read through it; DESIGN.md's
// "Formats" table lists them side by side.
package frame

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

// The taxonomy. Errors returned by this package wrap exactly one of
// these, except a clean io.EOF before a record and a reader's own I/O
// failure, which ReadRecord wraps as is.
var (
	// ErrShort: the input ends before the layout does — a record cut
	// inside its header or payload, an envelope too small to hold magic,
	// version and CRC, a field running off the end.
	ErrShort = errors.New("frame: short input")
	// ErrCorrupt: every byte is present and they cannot be valid — a
	// checksum mismatch, a foreign magic, an overflowing varint, bytes
	// after the last field.
	ErrCorrupt = errors.New("frame: corrupt input")
	// ErrOversize: a record's length prefix exceeds the caller's limit.
	ErrOversize = errors.New("frame: oversize record")
)

// HeaderLen is the size of a record header: 4 length + 4 CRC bytes.
const HeaderLen = 8

// PutHeader fills hdr[:HeaderLen] with the record header for payload.
// A writer either emits the header and then the payload (the journal)
// or builds the payload in place: reserve the header, append the
// fields, back-fill it with this (the stream and submit frames).
func PutHeader(hdr, payload []byte) {
	binary.BigEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
}

// ReadRecord reads one record from r and returns its checksummed
// payload. Header and payload are both read into buf when it has the
// capacity — nothing is allocated then, and a caller that keeps the
// returned slice as its next buf reads a whole stream from one buffer —
// and into a fresh slice otherwise. io.EOF means r ended cleanly before
// the record; ErrShort that it ended inside it; ErrOversize that the
// length prefix exceeds limit (checked before anything is allocated);
// ErrCorrupt that the checksum does not match. Any other failure of r
// is wrapped, so errors.As still finds it.
func ReadRecord(r io.Reader, buf []byte, limit uint32) ([]byte, error) {
	if cap(buf) < HeaderLen {
		buf = make([]byte, HeaderLen)
	}
	hdr := buf[:HeaderLen]
	if _, err := io.ReadFull(r, hdr); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, readErr(err)
	}
	n, sum := binary.BigEndian.Uint32(hdr[0:4]), binary.BigEndian.Uint32(hdr[4:8])
	if n > limit {
		return nil, fmt.Errorf("%w: %d bytes, limit %d", ErrOversize, n, limit)
	}
	if uint64(cap(buf)) < uint64(n) {
		buf = make([]byte, n)
	}
	payload := buf[:n]
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, readErr(err)
	}
	if crc32.ChecksumIEEE(payload) != sum {
		return nil, fmt.Errorf("%w: record checksum mismatch", ErrCorrupt)
	}
	return payload, nil
}

func readErr(err error) error {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return ErrShort
	}
	return fmt.Errorf("frame: read: %w", err)
}

// Seal closes an envelope: buf holds magic, version and body, and Seal
// appends the CRC-32 of all of it.
func Seal(buf []byte) []byte {
	return binary.BigEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
}

// Open verifies an envelope written with Seal — length, then checksum,
// then magic — and returns its version byte and body. The version is
// returned, not judged: which ones are readable is the format's call.
func Open(data []byte, magic string) (version byte, body []byte, err error) {
	if len(data) < len(magic)+1+4 {
		return 0, nil, fmt.Errorf("%w: %d-byte envelope", ErrShort, len(data))
	}
	body, sum := data[:len(data)-4], binary.BigEndian.Uint32(data[len(data)-4:])
	if crc32.ChecksumIEEE(body) != sum {
		return 0, nil, fmt.Errorf("%w: envelope checksum mismatch", ErrCorrupt)
	}
	if string(body[:len(magic)]) != magic {
		return 0, nil, fmt.Errorf("%w: magic %q, want %q", ErrCorrupt, body[:len(magic)], magic)
	}
	return body[len(magic)], body[len(magic)+1:], nil
}

// Enc appends fields to Buf.
type Enc struct{ Buf []byte }

// Uvarint appends an unsigned varint.
func (e *Enc) Uvarint(v uint64) { e.Buf = binary.AppendUvarint(e.Buf, v) }

// Int appends a non-negative int as an unsigned varint.
func (e *Enc) Int(v int) { e.Buf = binary.AppendUvarint(e.Buf, uint64(v)) }

// Varint appends a signed int as a zigzag varint.
func (e *Enc) Varint(v int) { e.Buf = binary.AppendVarint(e.Buf, int64(v)) }

// Byte appends one byte.
func (e *Enc) Byte(b byte) { e.Buf = append(e.Buf, b) }

// String appends a length-prefixed string.
func (e *Enc) String(s string) {
	e.Int(len(s))
	e.Buf = append(e.Buf, s...)
}

// Float64 appends the 8 big-endian bytes of f's IEEE-754 form.
func (e *Enc) Float64(f float64) {
	e.Buf = binary.BigEndian.AppendUint64(e.Buf, math.Float64bits(f))
}

// Dec reads fields from Data in order. The first failure is kept in Err
// and consumes the rest of the input, so every later read fails too and
// returns zero: a decoder reads a whole layout straight through and
// checks once, with Done or Err. Returned byte slices alias Data.
//
// Reads advance an integer cursor rather than reslicing Data: the
// readers are called out of line on the submit hot path, where a
// pointer store through d would pay the GC write barrier per field.
type Dec struct {
	Data []byte
	Err  error
	off  int
}

// fail records the first failure. Out of line, so the readers carry no
// error formatting.
//
//go:noinline
func (d *Dec) fail(kind error, what string) {
	if d.Err == nil {
		d.Err = fmt.Errorf("%w: %s at byte %d of %d", kind, what, d.off, len(d.Data))
	}
	d.off = len(d.Data)
}

// varintKind classifies the n of a failed binary.Uvarint or Varint: 0
// is input that ended inside the varint, anything else one that does
// not fit the type.
func varintKind(n int) error {
	if n == 0 {
		return ErrShort
	}
	return ErrCorrupt
}

// Uvarint reads an unsigned varint.
func (d *Dec) Uvarint() uint64 {
	v, n := binary.Uvarint(d.Data[d.off:])
	if n <= 0 {
		d.fail(varintKind(n), "uvarint")
		return 0
	}
	d.off += n
	return v
}

// Int reads an unsigned varint that must fit a non-negative int.
func (d *Dec) Int() int {
	v, n := binary.Uvarint(d.Data[d.off:])
	if n <= 0 || v > math.MaxInt {
		d.fail(varintKind(n), "uvarint int")
		return 0
	}
	d.off += n
	return int(v)
}

// Varint reads a zigzag varint.
func (d *Dec) Varint() int {
	v, n := binary.Varint(d.Data[d.off:])
	if n <= 0 {
		d.fail(varintKind(n), "varint")
		return 0
	}
	d.off += n
	return int(v)
}

// Byte reads one byte.
func (d *Dec) Byte() byte {
	if d.off >= len(d.Data) {
		d.fail(ErrShort, "byte")
		return 0
	}
	b := d.Data[d.off]
	d.off++
	return b
}

// Bytes reads a length-prefixed byte string without copying it.
func (d *Dec) Bytes() []byte {
	n := d.Int()
	if n > len(d.Data)-d.off {
		d.fail(ErrShort, "length-prefixed bytes")
		return nil
	}
	b := d.Data[d.off : d.off+n : d.off+n]
	d.off += n
	return b
}

// String reads a length-prefixed string.
func (d *Dec) String() string { return string(d.Bytes()) }

// Float64 reads 8 big-endian IEEE-754 bytes.
func (d *Dec) Float64() float64 {
	if len(d.Data)-d.off < 8 {
		d.fail(ErrShort, "float64")
		return 0
	}
	f := math.Float64frombits(binary.BigEndian.Uint64(d.Data[d.off:]))
	d.off += 8
	return f
}

// Count reads an element count and refuses one the remaining input
// cannot hold at a byte per element, so a hostile count never sizes an
// allocation or drives a long loop over nothing.
func (d *Dec) Count() int {
	n := d.Int()
	if n > len(d.Data)-d.off {
		d.fail(ErrShort, "element count")
		return 0
	}
	return n
}

// Rest reads everything left: the unread bytes, uncopied.
func (d *Dec) Rest() []byte {
	b := d.Data[d.off:]
	d.off = len(d.Data)
	return b
}

// Done reports the first failure, or that bytes are left over after
// the last field.
func (d *Dec) Done() error {
	if d.Err == nil && d.off != len(d.Data) {
		d.fail(ErrCorrupt, "trailing bytes")
	}
	return d.Err
}
