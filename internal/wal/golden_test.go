package wal

// Golden-file pin of the on-disk journal encoding. If this test fails
// because the format deliberately changed, bump journalVersion, teach
// Replay the old version, and regenerate with:
//
//	go test ./internal/wal -run TestJournalGolden -update

import (
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"carbonshift/internal/golden"
)

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
	golden.Check(t, "journal_v1.golden", []byte(hex.EncodeToString(raw)+"\n"))
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
	golden.Check(t, "snapshot_v1.golden", []byte(hex.EncodeToString(raw)+"\n"))
}
