package wal

// Golden-file pin of the on-disk journal encoding. If this test fails
// because the format deliberately changed, bump journalVersion, teach
// Replay the old version, and regenerate with:
//
//	go test ./internal/wal -run TestJournalGolden -update

import (
	"encoding/hex"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

func TestJournalGolden(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	appendAll(t, path, Options{Sync: SyncNone},
		[]byte("carbon"),
		[]byte{0x01, 0x00, 0xfe, 0x07},
	)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got := hex.EncodeToString(raw)

	golden := filepath.Join("testdata", "journal_v1.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got+"\n" != string(want) {
		t.Fatalf("journal encoding drifted from %s:\ngot:  %s\nwant: %s\n(version byte, record framing, or CRC changed — bump journalVersion and regenerate with -update)",
			golden, got, want)
	}
}

func TestSnapshotFileGolden(t *testing.T) {
	s, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.WriteSnapshot(7, []byte("fleet-state-payload")); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(s.SnapshotPath(7))
	if err != nil {
		t.Fatal(err)
	}
	got := hex.EncodeToString(raw)

	golden := filepath.Join("testdata", "snapshot_v1.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got+"\n" != string(want) {
		t.Fatalf("snapshot file encoding drifted from %s:\ngot:  %s\nwant: %s", golden, got, want)
	}
}
