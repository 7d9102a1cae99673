package repl

// FuzzReplStreamDecode hardens the stream frame decoder against a
// hostile or corrupted primary: torn frames, flipped CRCs, oversized
// length prefixes, and arbitrary garbage must all surface as errors —
// never a panic, never an unbounded allocation.

import (
	"bytes"
	"io"
	"testing"

	"carbonshift/internal/wal"
)

// sampleStream builds one well-formed frame of every type.
func sampleStream() []byte {
	buf := AppendHello(nil, Cursor{Generation: 3, Offset: int64(wal.HeaderLen)})
	buf = AppendRecord(buf, 42, []byte{0x01, 0x05, 0x02})
	buf = AppendRotate(buf, Cursor{Generation: 4, Offset: int64(wal.HeaderLen)})
	buf = AppendHeartbeat(buf, 17, Cursor{Generation: 4, Offset: 99})
	return AppendEnd(buf, "done")
}

func FuzzReplStreamDecode(f *testing.F) {
	whole := sampleStream()
	f.Add(whole)
	f.Add(whole[:len(whole)-3])                            // torn final frame
	f.Add(whole[:frameHeaderLen-2])                        // torn first header
	f.Add([]byte{})                                        // empty stream
	f.Add([]byte{'R', 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0}) // hostile length
	corrupt := append([]byte(nil), whole...)
	corrupt[frameHeaderLen+2] ^= 0xff // flip a hello payload byte: CRC mismatch
	f.Add(corrupt)

	f.Fuzz(func(t *testing.T, data []byte) {
		fr := NewFrameReader(bytes.NewReader(data))
		frames := 0
		for {
			fm, err := fr.Next()
			if err != nil {
				if err != io.EOF && err != io.ErrUnexpectedEOF && !bytes.Contains([]byte(err.Error()), []byte("repl:")) {
					t.Fatalf("unexpected error class: %v", err)
				}
				return
			}
			// A decoded frame must be internally consistent.
			switch fm.Type {
			case frameHello, frameRecord, frameRotate, frameHeartbeat, frameEnd:
			default:
				t.Fatalf("decoder returned unknown frame type %q without error", fm.Type)
			}
			if fm.Cursor.Offset < 0 {
				t.Fatalf("negative cursor offset %d", fm.Cursor.Offset)
			}
			frames++
			if frames > len(data) {
				t.Fatalf("decoded %d frames from %d bytes", frames, len(data))
			}
		}
	})
}

// TestFrameRoundTrip pins that every encoder/decoder pair is lossless.
func TestFrameRoundTrip(t *testing.T) {
	fr := NewFrameReader(bytes.NewReader(sampleStream()))

	f, err := fr.Next()
	if err != nil || f.Type != frameHello || f.Cursor != (Cursor{Generation: 3, Offset: int64(wal.HeaderLen)}) {
		t.Fatalf("hello = %+v, %v", f, err)
	}
	f, err = fr.Next()
	if err != nil || f.Type != frameRecord || f.Cursor.Offset != 42 || !bytes.Equal(f.Record, []byte{0x01, 0x05, 0x02}) {
		t.Fatalf("record = %+v, %v", f, err)
	}
	f, err = fr.Next()
	if err != nil || f.Type != frameRotate || f.Cursor != (Cursor{Generation: 4, Offset: int64(wal.HeaderLen)}) {
		t.Fatalf("rotate = %+v, %v", f, err)
	}
	f, err = fr.Next()
	if err != nil || f.Type != frameHeartbeat || f.Hour != 17 || f.Cursor != (Cursor{Generation: 4, Offset: 99}) {
		t.Fatalf("heartbeat = %+v, %v", f, err)
	}
	f, err = fr.Next()
	if err != nil || f.Type != frameEnd || f.Reason != "done" {
		t.Fatalf("end = %+v, %v", f, err)
	}
	if _, err := fr.Next(); err != io.EOF {
		t.Fatalf("after last frame err = %v, want io.EOF", err)
	}
}

// TestAppendRecordAllocs: a record frame is built in place — type byte
// and header reserved, cursor and record appended behind them, header
// back-filled — so a stream that reuses one buffer (frameWriter) pays no
// allocation and one copy per streamed record. Building the payload in
// a slice of its own first cost 4 allocations into nil and 1 into a
// reused buffer.
func TestAppendRecordAllocs(t *testing.T) {
	record := bytes.Repeat([]byte{0xa5}, 1200)
	buf := AppendRecord(nil, 1<<20, record)
	want := bytes.Clone(buf)
	if n := testing.AllocsPerRun(100, func() {
		buf = AppendRecord(buf[:0], 1<<20, record)
	}); n != 0 {
		t.Fatalf("%v allocations per record into a reused buffer, want 0", n)
	}
	f, err := NewFrameReader(bytes.NewReader(buf)).Next()
	if err != nil || !bytes.Equal(buf, want) || f.Cursor.Offset != 1<<20 || !bytes.Equal(f.Record, record) {
		t.Fatalf("reused-buffer frame = %+v, %v", f.Type, err)
	}
}
