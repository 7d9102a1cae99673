package wal

import (
	"path/filepath"
	"testing"
	"time"

	"carbonshift/internal/tracing"
)

// TestGroupCommitTraced pins the wal.group_commit span: every fsync
// round (here, sampled 1-in-1) lands in the tracer's ring as its own
// root trace carrying the batch size.
func TestGroupCommitTraced(t *testing.T) {
	tr := tracing.New(tracing.Config{SampleEvery: 1})
	j, err := Create(filepath.Join(t.TempDir(), "j.wal"), Options{Sync: SyncAlways, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if err := j.Append([]byte("one")); err != nil {
		t.Fatal(err)
	}
	if err := j.Append([]byte("two")); err != nil {
		t.Fatal(err)
	}

	dump := tr.Snapshot()
	if len(dump.Traces) < 2 {
		t.Fatalf("recorded %d group-commit traces, want >= 2", len(dump.Traces))
	}
	for _, td := range dump.Traces {
		if td.Root != "wal.group_commit" {
			t.Fatalf("trace root = %q, want wal.group_commit", td.Root)
		}
		if len(td.Spans) != 1 || len(td.Spans[0].Attrs) != 1 || td.Spans[0].Attrs[0].Key != "batch" {
			t.Fatalf("group-commit span = %+v, want a single span with a batch attr", td.Spans)
		}
	}
}

// TestBatchModeFlusherTraced covers the SyncBatch path: the background
// flusher's fsync rounds are traced too.
func TestBatchModeFlusherTraced(t *testing.T) {
	tr := tracing.New(tracing.Config{SampleEvery: 1})
	j, err := Create(filepath.Join(t.TempDir(), "j.wal"),
		Options{Sync: SyncBatch, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if _, err := j.AppendNoWait([]byte("rec")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for len(tr.Snapshot().Traces) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("flusher never recorded a group-commit trace")
		}
		time.Sleep(time.Millisecond)
	}
	if got := tr.Snapshot().Traces[0].Root; got != "wal.group_commit" {
		t.Fatalf("root = %q", got)
	}
}
