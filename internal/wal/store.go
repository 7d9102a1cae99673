package wal

// The snapshot store: generation-numbered full-state snapshots written
// atomically next to the journal of the same generation. Generation G
// means "journal-G applies on top of snap-G", so recovery is: restore
// the newest valid snapshot, replay its journal, and ignore everything
// older. Writers rotate by writing snap-(G+1) first, then creating
// journal-(G+1), then deleting older generations — every crash point
// in that sequence leaves a recoverable directory.

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"syscall"

	"carbonshift/internal/frame"
)

const (
	snapMagic   = "CSSN"
	snapVersion = 1
)

// Store manages one data directory of snapshots and journals. Opening
// takes an exclusive lock on the directory for the life of the store.
type Store struct {
	dir  string
	lock *os.File
}

// OpenStore opens (creating if needed) a data directory. It takes an
// exclusive flock on a LOCK file so two processes can never journal
// into the same directory (a second opener fails immediately); the
// kernel releases the lock on process death, so a kill -9'd scheduler
// never blocks its own restart. Temp files a crashed snapshot write
// left behind are swept so repeated crashes cannot accumulate dead
// state.
func OpenStore(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: open store: %w", err)
	}
	lock, err := os.OpenFile(filepath.Join(dir, "LOCK"), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: open store: %w", err)
	}
	if err := syscall.Flock(int(lock.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		lock.Close()
		return nil, fmt.Errorf("wal: data directory %s is in use by another process: %w", dir, err)
	}
	if tmps, err := filepath.Glob(filepath.Join(dir, "*.tmp")); err == nil {
		for _, t := range tmps {
			os.Remove(t)
		}
	}
	return &Store{dir: dir, lock: lock}, nil
}

// Close releases the directory lock. Idempotent.
func (s *Store) Close() error {
	if s.lock == nil {
		return nil
	}
	err := s.lock.Close() // closing the descriptor releases the flock
	s.lock = nil
	return err
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// SnapshotPath returns the snapshot file path for a generation.
func (s *Store) SnapshotPath(gen uint64) string {
	return filepath.Join(s.dir, fmt.Sprintf("snap-%08d.snap", gen))
}

// JournalPath returns the journal file path for a generation.
func (s *Store) JournalPath(gen uint64) string {
	return filepath.Join(s.dir, fmt.Sprintf("journal-%08d.wal", gen))
}

// WriteSnapshot atomically writes one generation's snapshot: the
// payload is sealed in a frame envelope ("CSSN" | version 1 | payload |
// crc32), written to a temp file, fsynced, and renamed into place.
func (s *Store) WriteSnapshot(gen uint64, payload []byte) error {
	buf := make([]byte, 0, len(snapMagic)+1+len(payload)+4)
	buf = append(buf, snapMagic...)
	buf = append(buf, snapVersion)
	buf = frame.Seal(append(buf, payload...))

	tmp, err := os.CreateTemp(s.dir, "snap-*.tmp")
	if err != nil {
		return fmt.Errorf("wal: write snapshot: %w", err)
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(buf); err != nil {
		tmp.Close()
		return fmt.Errorf("wal: write snapshot: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("wal: write snapshot: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("wal: write snapshot: %w", err)
	}
	if err := os.Rename(tmp.Name(), s.SnapshotPath(gen)); err != nil {
		return fmt.Errorf("wal: write snapshot: %w", err)
	}
	s.syncDir()
	return nil
}

// readSnapshot loads and verifies one snapshot file, returning its
// payload.
func readSnapshot(path string) ([]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	ver, body, err := frame.Open(data, snapMagic)
	if err != nil {
		return nil, fmt.Errorf("wal: snapshot %s: %w", filepath.Base(path), err)
	}
	if ver != snapVersion {
		return nil, fmt.Errorf("wal: snapshot %s: unsupported version %d", filepath.Base(path), ver)
	}
	return body, nil
}

// LatestSnapshot returns the newest generation whose snapshot file
// validates, with its payload. Corrupt or half-written snapshots are
// skipped in favor of older ones, but if snapshots exist and NONE
// validates the store is damaged and LatestSnapshot errors — silently
// restarting from empty state would discard every journaled
// acknowledgement. Generation 0 with a nil payload and a nil error
// means the store genuinely holds no snapshot yet.
func (s *Store) LatestSnapshot() (gen uint64, payload []byte, err error) {
	gens, err := s.generations("snap-", ".snap")
	if err != nil {
		return 0, nil, err
	}
	var firstErr error
	for i := len(gens) - 1; i >= 0; i-- {
		p, err := readSnapshot(s.SnapshotPath(gens[i]))
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue // corrupt: fall back to the previous generation
		}
		return gens[i], p, nil
	}
	if firstErr != nil {
		return 0, nil, fmt.Errorf("wal: %d snapshot(s) present but none is usable (refusing to start empty): %w", len(gens), firstErr)
	}
	return 0, nil, nil
}

// RemoveGenerationsBelow deletes every snapshot and journal file of a
// generation older than keep. Removal failures are ignored — stale
// files cost disk, not correctness, and the next rotation retries.
func (s *Store) RemoveGenerationsBelow(keep uint64) {
	for _, prefix := range []struct{ pre, ext string }{{"snap-", ".snap"}, {"journal-", ".wal"}} {
		gens, err := s.generations(prefix.pre, prefix.ext)
		if err != nil {
			continue
		}
		for _, g := range gens {
			if g >= keep {
				continue
			}
			if prefix.pre == "snap-" {
				os.Remove(s.SnapshotPath(g))
			} else {
				os.Remove(s.JournalPath(g))
			}
		}
	}
	s.syncDir()
}

// generations lists the sorted generation numbers of files matching
// prefix/ext in the store directory.
func (s *Store) generations(prefix, ext string) ([]uint64, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("wal: scan store: %w", err)
	}
	var gens []uint64
	for _, e := range entries {
		name := e.Name()
		if len(name) <= len(prefix)+len(ext) ||
			name[:len(prefix)] != prefix || name[len(name)-len(ext):] != ext {
			continue
		}
		var g uint64
		if _, err := fmt.Sscanf(name[len(prefix):len(name)-len(ext)], "%d", &g); err != nil {
			continue
		}
		gens = append(gens, g)
	}
	sort.Slice(gens, func(a, b int) bool { return gens[a] < gens[b] })
	return gens, nil
}

// syncDir fsyncs the store directory so renames and removals are
// durable. Best effort: some filesystems refuse directory fsync.
func (s *Store) syncDir() {
	if d, err := os.Open(s.dir); err == nil {
		d.Sync()
		d.Close()
	}
}
