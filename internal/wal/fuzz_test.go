package wal

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// FuzzJournalReplay feeds arbitrary bytes to Replay as a journal file:
// it must never panic, may error only on damage a crash cannot explain
// (foreign magic, future version), and must read exactly what walk —
// the test's own reading of the format, which shares no code with the
// package's reader — reads: the same records, ValidBytes and Truncated,
// on every replay of the same bytes.
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
	f.Add(valid[:len(valid)-3])                                       // torn payload
	f.Add(valid[:HeaderLen+4])                                        // torn record header
	f.Add(valid[:HeaderLen])                                          // header only
	f.Add([]byte{})                                                   // empty file
	f.Add([]byte("CSWL"))                                             // short header
	f.Add([]byte("CSWL\x02junk"))                                     // future version
	f.Add([]byte("CSWL\x01\xff\xff\xff\xff\x00\x00\x00\x00"))         // huge length prefix
	f.Add(append(valid[:len(valid):len(valid)], make([]byte, 64)...)) // zero-filled tail
	f.Add(make([]byte, len(valid)))                                   // zero-filled header
	mut := append([]byte(nil), valid...)
	mut[HeaderLen+2] ^= 0x40 // corrupt first record's length
	f.Add(mut)

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.wal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Skip()
		}
		recs, valid, truncated, foreign := walk(data)
		want := ReplayResult{Records: len(recs), ValidBytes: valid, Truncated: truncated}
		for range 2 {
			var got [][]byte
			res, err := Replay(path, func(p []byte) error {
				got = append(got, append([]byte(nil), p...))
				return nil
			})
			if (err != nil) != foreign || len(got) != len(recs) {
				t.Fatalf("replay delivered %d records, err %v; walk reads %d, foreign header %v", len(got), err, len(recs), foreign)
			}
			if err == nil && res != want {
				t.Fatalf("replay = %+v, walk reads %+v", res, want)
			}
			for i := range recs {
				if !bytes.Equal(got[i], recs[i]) {
					t.Fatalf("record %d = %q, walk reads %q", i, got[i], recs[i])
				}
			}
		}
	})
}

// walk reads data as a journal: a "CSWL" 1 header, then records of a
// 4-byte big-endian length, a 4-byte CRC-32 and the payload, up to the
// first that is cut short, longer than MaxRecord, empty or fails its
// CRC. A short or all-zero header is a truncated empty journal; foreign
// reports a whole header that is neither zero nor a journal's.
func walk(data []byte) (recs [][]byte, valid int64, truncated, foreign bool) {
	switch {
	case len(data) < HeaderLen || bytes.Equal(data[:HeaderLen], make([]byte, HeaderLen)):
		return nil, 0, true, false
	case string(data[:HeaderLen]) != "CSWL\x01":
		return nil, 0, false, true
	}
	rest := data[HeaderLen:]
	for len(rest) >= 8 {
		n, sum := binary.BigEndian.Uint32(rest), binary.BigEndian.Uint32(rest[4:])
		if n == 0 || n > MaxRecord || uint64(n) > uint64(len(rest)-8) || crc32.ChecksumIEEE(rest[8:8+n]) != sum {
			break
		}
		recs, rest = append(recs, rest[8:8+n]), rest[8+n:]
	}
	return recs, int64(len(data) - len(rest)), len(rest) > 0, false
}
