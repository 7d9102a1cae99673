package frame

import (
	"bytes"
	"errors"
	"io"
	"math"
	"net/http"
	"runtime"
	"testing"
)

// failingReader yields its bytes, then fails with err instead of EOF.
type failingReader struct {
	data []byte
	err  error
}

func (r *failingReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, r.err
	}
	n := copy(p, r.data)
	r.data = r.data[n:]
	return n, nil
}

// record frames payload the way every writer does: header, then payload.
func record(payload []byte) []byte {
	rec := append(make([]byte, HeaderLen), payload...)
	PutHeader(rec, payload)
	return rec
}

// TestReadRecord is the one table of record verdicts the journal, the
// segment cursor, the replication stream and the binary submit frame
// all switch on.
func TestReadRecord(t *testing.T) {
	payload := []byte("twelve bytes")
	rec := record(payload)
	flip := func(i int) []byte {
		b := bytes.Clone(rec)
		b[i] ^= 0x10
		return b
	}
	limited := &http.MaxBytesError{Limit: 10}
	for _, tc := range []struct {
		name  string
		r     io.Reader
		limit uint32
		want  error // matched with errors.Is; nil = the payload comes back
	}{
		{"whole record", bytes.NewReader(rec), 64, nil},
		{"record exactly at the limit", bytes.NewReader(rec), uint32(len(payload)), nil},
		{"clean end before a record", bytes.NewReader(nil), 64, io.EOF},
		{"cut inside the header", bytes.NewReader(rec[:5]), 64, ErrShort},
		{"cut before the payload", bytes.NewReader(rec[:HeaderLen]), 64, ErrShort},
		{"cut inside the payload", bytes.NewReader(rec[:len(rec)-1]), 64, ErrShort},
		{"length past the limit", bytes.NewReader(rec), uint32(len(payload)) - 1, ErrOversize},
		{"flipped payload bit", bytes.NewReader(flip(HeaderLen + 3)), 64, ErrCorrupt},
		{"flipped CRC bit", bytes.NewReader(flip(6)), 64, ErrCorrupt},
		{"reader fails mid-payload", &failingReader{rec[:10], limited}, 64, limited},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := ReadRecord(tc.r, nil, tc.limit)
			if tc.want == nil {
				if err != nil || !bytes.Equal(got, payload) {
					t.Fatalf("ReadRecord = %q, %v", got, err)
				}
				return
			}
			if !errors.Is(err, tc.want) || got != nil {
				t.Fatalf("ReadRecord = %q, %v; want errors.Is %v and no payload", got, err, tc.want)
			}
			var mbe *http.MaxBytesError
			if tc.want == error(limited) && !errors.As(err, &mbe) {
				t.Fatalf("errors.As lost the reader's *http.MaxBytesError in %v", err)
			}
			for _, other := range []error{io.EOF, ErrShort, ErrCorrupt, ErrOversize} {
				if other != tc.want && errors.Is(err, other) {
					t.Fatalf("%v is also %v: the taxonomy must not overlap", err, other)
				}
			}
		})
	}
}

// TestReadRecordAllocs: a reader that keeps the returned payload as its
// next buffer reads a stream without allocating — the header scratch
// lives in the caller's buffer, not in a local that escapes through
// io.Reader — and an oversize length allocates nothing before it is
// refused.
func TestReadRecordAllocs(t *testing.T) {
	rec := record(make([]byte, 1200))
	r := bytes.NewReader(rec)
	buf := make([]byte, 0, 2048)
	if n := testing.AllocsPerRun(100, func() {
		r.Reset(rec)
		p, err := ReadRecord(r, buf, 4096)
		if err != nil {
			t.Fatal(err)
		}
		buf = p
	}); n != 0 {
		t.Fatalf("%v allocations per record into a reused buffer, want 0", n)
	}
	// 0xffffffff declared bytes: had the length been trusted before the
	// limit was checked, each call would have allocated 4 GiB.
	huge := []byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 100; i++ {
		r.Reset(huge)
		if _, err := ReadRecord(r, buf, 1<<20); !errors.Is(err, ErrOversize) {
			t.Fatalf("oversize record: %v", err)
		}
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Fatalf("refusing 100 oversize records allocated %d bytes", got)
	}
}

func TestOpen(t *testing.T) {
	sealed := Seal(append([]byte("MAGC\x07"), "body"...))
	reseal := func(b []byte) []byte { return Seal(bytes.Clone(b[:len(b)-4])) }
	foreign := bytes.Clone(sealed)
	copy(foreign, "XXXX")
	flipped := bytes.Clone(sealed)
	flipped[0] ^= 1 // breaks magic AND checksum: the checksum is judged first
	for _, tc := range []struct {
		name string
		data []byte
		want error
	}{
		{"sealed envelope", sealed, nil},
		{"empty body", Seal([]byte("MAGC\x07")), nil},
		{"too short for magic, version and CRC", sealed[:8], ErrShort},
		{"empty", nil, ErrShort},
		{"checksum before magic", flipped, ErrCorrupt},
		{"foreign magic, valid checksum", reseal(foreign), ErrCorrupt},
		{"truncated", sealed[:len(sealed)-1], ErrCorrupt},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ver, body, err := Open(tc.data, "MAGC")
			if tc.want == nil {
				// Version 7 is nobody's format: Open returns it, the caller judges.
				if err != nil || ver != 7 || !bytes.Equal(body, tc.data[5:len(tc.data)-4]) {
					t.Fatalf("Open = %d, %q, %v", ver, body, err)
				}
				return
			}
			if !errors.Is(err, tc.want) || body != nil {
				t.Fatalf("Open = %q, %v; want %v", body, err, tc.want)
			}
		})
	}
	if _, _, err := Open(flipped, "MAGC"); err == nil || bytes.Contains([]byte(err.Error()), []byte("magic")) {
		t.Fatalf("a damaged envelope was blamed on its magic, not its checksum: %v", err)
	}
}

// TestFieldsRoundTrip: every Enc write is read back by the Dec read of
// the same name, at the edges of each type.
func TestFieldsRoundTrip(t *testing.T) {
	var e Enc
	e.Uvarint(math.MaxUint64)
	e.Int(0)
	e.Int(math.MaxInt)
	e.Varint(math.MinInt)
	e.Varint(-1)
	e.Byte(0xfe)
	e.String("")
	e.String("région")
	e.Float64(math.Inf(-1))
	e.Int(3) // a count the three bytes after it can hold
	e.Buf = append(e.Buf, 1, 2, 3)

	d := Dec{Data: e.Buf}
	if v := d.Uvarint(); v != math.MaxUint64 {
		t.Fatalf("Uvarint = %d", v)
	}
	if a, b := d.Int(), d.Int(); a != 0 || b != math.MaxInt {
		t.Fatalf("Int = %d, %d", a, b)
	}
	if a, b := d.Varint(), d.Varint(); a != math.MinInt || b != -1 {
		t.Fatalf("Varint = %d, %d", a, b)
	}
	if b := d.Byte(); b != 0xfe {
		t.Fatalf("Byte = %#x", b)
	}
	if a, b := d.String(), d.String(); a != "" || b != "région" {
		t.Fatalf("String = %q, %q", a, b)
	}
	if f := d.Float64(); !math.IsInf(f, -1) {
		t.Fatalf("Float64 = %v", f)
	}
	if n := d.Count(); n != 3 {
		t.Fatalf("Count = %d", n)
	}
	if err := d.Done(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Done with three unread bytes = %v, want ErrCorrupt", err)
	}

	// Sticky: after the first failure every read is zero and Err does
	// not change.
	d = Dec{Data: []byte{0x80}} // a varint cut after its first byte
	if v := d.Int(); v != 0 || !errors.Is(d.Err, ErrShort) {
		t.Fatalf("cut varint = %d, %v", v, d.Err)
	}
	first := d.Err
	if d.Byte() != 0 || d.String() != "" || d.Float64() != 0 || d.Count() != 0 || len(d.Rest()) != 0 || d.Done() != first {
		t.Fatalf("reads after a failure: Err %v, was %v", d.Err, first)
	}
	for name, data := range map[string][]byte{
		"11-byte uvarint":     bytes.Repeat([]byte{0xff}, 11),
		"uvarint past MaxInt": {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01},
	} {
		d := Dec{Data: data}
		if d.Int(); !errors.Is(d.Err, ErrCorrupt) {
			t.Fatalf("%s: %v, want ErrCorrupt", name, d.Err)
		}
	}
	d = Dec{Data: []byte{5, 1, 2, 3, 4}} // five elements declared, four bytes follow
	if n := d.Count(); n != 0 || !errors.Is(d.Err, ErrShort) {
		t.Fatalf("Count past the input = %d, %v", n, d.Err)
	}
}

// FuzzDec drives a Dec over arbitrary bytes with an arbitrary read
// script: it never panics, every byte slice it returns lies inside its
// input, the unread remainder only shrinks, a failure is sticky, and
// Done is nil only when the script consumed every byte.
func FuzzDec(f *testing.F) {
	var e Enc
	e.Int(2)
	e.String("ab")
	e.Varint(-7)
	e.Float64(1.5)
	f.Add(e.Buf, []byte{7, 0, 4, 2, 6})
	f.Add([]byte{0xff, 0xff, 0xff}, []byte{1, 1, 1})
	f.Add([]byte{200, 1, 2}, []byte{4, 5})
	f.Add([]byte{}, []byte{0, 1, 2, 3, 4, 5, 6, 7, 8})

	f.Fuzz(func(t *testing.T, data, script []byte) {
		in := bytes.Clone(data)
		d := Dec{Data: in}
		// inside: b is exactly the input the cursor just passed over.
		inside := func(b []byte) {
			if len(b) > 0 && (len(b) > d.off || &b[0] != &in[d.off-len(b)] || cap(b) != len(b)) {
				t.Fatalf("returned %d bytes (cap %d) that are not the input just consumed", len(b), cap(b))
			}
		}
		left := len(in)
		for _, op := range script {
			failed := d.Err
			switch op % 9 {
			case 0:
				d.Uvarint()
			case 1:
				d.Int()
			case 2:
				d.Varint()
			case 3:
				d.Byte()
			case 4:
				inside(d.Bytes())
			case 5:
				if s := d.String(); len(s) > len(in) {
					t.Fatalf("String returned %d bytes from %d", len(s), len(in))
				}
			case 6:
				d.Float64()
			case 7:
				if n := d.Count(); n > len(in)-d.off {
					t.Fatalf("Count let %d elements through with %d bytes left", n, len(in)-d.off)
				}
			case 8:
				rest := d.Rest()
				if len(rest) > 0 && &rest[len(rest)-1] != &in[len(in)-1] {
					t.Fatal("Rest is not the tail of the input")
				}
			}
			if d.off < 0 || d.off > len(in) || len(in)-d.off > left {
				t.Fatalf("cursor %d after op %d: %d bytes were left of %d", d.off, op%9, left, len(in))
			}
			left = len(in) - d.off
			if failed != nil && (d.Err != failed || left != 0) {
				t.Fatalf("failure not sticky: Err %v → %v, %d bytes left", failed, d.Err, left)
			}
			if d.Err != nil && !errors.Is(d.Err, ErrShort) && !errors.Is(d.Err, ErrCorrupt) {
				t.Fatalf("Err %v is outside the taxonomy", d.Err)
			}
		}
		clean := d.Err == nil && left == 0
		if err := d.Done(); (err == nil) != clean {
			t.Fatalf("Done = %v with Err %v and %d bytes left", err, d.Err, left)
		}
		if !bytes.Equal(in, data) {
			t.Fatal("Dec wrote to its input")
		}
	})
}
