package wal

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// FuzzJournalReplay feeds arbitrary bytes to Replay as a journal file:
// it must never panic, never report more valid bytes than the file
// holds, may error only on damage a crash cannot explain (foreign
// magic, future version), and must be deterministic — replaying the
// same bytes twice yields the same records and the same outcome.
//
// Differential arm: a SegmentReader opened at 0 over the same bytes is
// the other reader of this format. It must refuse to open exactly when
// Replay finds no valid header, deliver exactly Replay's records, stop
// at Replay's ValidBytes, and end in ErrNoRecord or ErrCorrupt — never
// anything else.
func FuzzJournalReplay(f *testing.F) {
	// A valid two-record journal as the structured seed.
	seedPath := filepath.Join(f.TempDir(), "seed.wal")
	j, err := Create(seedPath, Options{Sync: SyncNone})
	if err != nil {
		f.Fatal(err)
	}
	j.Append([]byte("record-one"))
	j.Append([]byte{0, 1, 2, 3})
	if err := j.Close(); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(seedPath)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)-3])                               // torn payload
	f.Add(valid[:HeaderLen+4])                                // torn record header
	f.Add(valid[:HeaderLen])                                  // header only
	f.Add([]byte{})                                           // empty file
	f.Add([]byte("CSWL"))                                     // short header
	f.Add([]byte("CSWL\x02junk"))                             // future version
	f.Add([]byte("CSWL\x01\xff\xff\xff\xff\x00\x00\x00\x00")) // huge length prefix
	mut := append([]byte(nil), valid...)
	mut[HeaderLen+2] ^= 0x40 // corrupt first record's length
	f.Add(mut)

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.wal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Skip()
		}
		var first [][]byte
		res, err := Replay(path, func(p []byte) error {
			first = append(first, append([]byte(nil), p...))
			return nil
		})
		if err != nil {
			// Foreign magic or unsupported version: allowed, but must
			// be deterministic and deliver no records.
			if len(first) != 0 {
				t.Fatalf("errored replay delivered %d records", len(first))
			}
			if _, err2 := Replay(path, func([]byte) error { return nil }); err2 == nil {
				t.Fatal("replay error not deterministic")
			}
			if sr, err := OpenSegment(path, 0); err == nil {
				sr.Close()
				t.Fatal("OpenSegment accepted a header Replay refused")
			}
			return
		}
		if res.ValidBytes > int64(len(data)) {
			t.Fatalf("ValidBytes %d exceeds file size %d", res.ValidBytes, len(data))
		}
		if res.Records != len(first) {
			t.Fatalf("Records %d but callback saw %d", res.Records, len(first))
		}
		if res.Records > 0 && res.ValidBytes < int64(HeaderLen) {
			t.Fatalf("records without a valid header: %+v", res)
		}
		// Determinism: a second replay sees the identical sequence.
		n := 0
		res2, err := Replay(path, func(p []byte) error {
			if n >= len(first) || string(p) != string(first[n]) {
				t.Fatalf("replay not deterministic at record %d", n)
			}
			n++
			return nil
		})
		if err != nil || res2 != res {
			t.Fatalf("second replay diverged: %+v vs %+v (err %v)", res2, res, err)
		}

		sr, err := OpenSegment(path, 0)
		if res.ValidBytes == 0 {
			if err == nil {
				sr.Close()
				t.Fatal("OpenSegment accepted a file with no complete header")
			}
			return
		}
		if err != nil {
			t.Fatalf("OpenSegment refused a header Replay accepted: %v", err)
		}
		defer sr.Close()
		for i := 0; ; i++ {
			p, err := sr.Next()
			if err != nil {
				if !errors.Is(err, ErrNoRecord) && !errors.Is(err, ErrCorrupt) {
					t.Fatalf("segment ended in %v, want ErrNoRecord or ErrCorrupt", err)
				}
				if i != len(first) || sr.Offset() != res.ValidBytes {
					t.Fatalf("segment stopped after %d records at offset %d, replay after %d at %d",
						i, sr.Offset(), len(first), res.ValidBytes)
				}
				if !res.Truncated && !errors.Is(err, ErrNoRecord) {
					t.Fatalf("clean journal ended in %v", err)
				}
				return
			}
			if i >= len(first) || !bytes.Equal(p, first[i]) {
				t.Fatalf("segment record %d differs from replay's", i)
			}
		}
	})
}
