package wal

import (
	"bytes"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"carbonshift/internal/metrics"
)

func scrapeJournalMetrics(t *testing.T, r *metrics.Registry) *metrics.Scrape {
	t.Helper()
	var buf bytes.Buffer
	if err := r.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	sc, err := metrics.ParseText(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// TestJournalMetricsSyncAlways: in group-commit mode every record is
// durable at Append return, so fsync count and batch-record totals
// must exactly cover the appended records — no double counting between
// the flush round and manual Sync.
func TestJournalMetricsSyncAlways(t *testing.T) {
	r := metrics.NewRegistry()
	jm := NewJournalMetrics(r)
	j, err := Create(filepath.Join(t.TempDir(), "j.wal"), Options{Sync: SyncAlways, Metrics: jm})
	if err != nil {
		t.Fatal(err)
	}
	const writers, each = 4, 25
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := j.Append([]byte{byte(w), byte(i), 0xAB}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := j.Sync(); err != nil { // already synced: must not inflate the batch totals
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	sc := scrapeJournalMetrics(t, r)
	total := float64(writers * each)
	if got, _ := sc.Value("wal_records_appended_total"); got != total {
		t.Errorf("wal_records_appended_total = %v, want %v", got, total)
	}
	wantBytes := float64(recordHeaderLen+3) * total // framing included
	if got, _ := sc.Value("wal_appended_bytes_total"); got != wantBytes {
		t.Errorf("wal_appended_bytes_total = %v, want %v", got, wantBytes)
	}
	// Batch sizes must partition the record sequence: their sum is the
	// record count — the redundant Sync and Close fsyncs observe
	// zero-record batches, never a double count.
	if got, _ := sc.Value("wal_fsync_batch_records_sum"); got != total {
		t.Errorf("wal_fsync_batch_records_sum = %v, want %v (batches must partition the records)", got, total)
	}
	fsyncs, _ := sc.Value("wal_fsync_seconds_count")
	if fsyncs < 1 || fsyncs > total+2 {
		t.Errorf("wal_fsync_seconds_count = %v, want within [1, %v]", fsyncs, total+2)
	}
	if batches, _ := sc.Value("wal_fsync_batch_records_count"); batches != fsyncs {
		t.Errorf("batch count %v != fsync count %v", batches, fsyncs)
	}
}

// TestJournalMetricsSyncBatch: the background flusher attributes each
// interval's records to its fsync. WaitSynced does not block in batch
// mode, so poll until the flusher has accounted for every record.
func TestJournalMetricsSyncBatch(t *testing.T) {
	r := metrics.NewRegistry()
	jm := NewJournalMetrics(r)
	j, err := Create(filepath.Join(t.TempDir(), "j.wal"),
		Options{Sync: SyncBatch, Metrics: jm})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := j.AppendNoWait([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		sc := scrapeJournalMetrics(t, r)
		sum, _ := sc.Value("wal_fsync_batch_records_sum")
		fsyncs, _ := sc.Value("wal_fsync_seconds_count")
		if sum == 10 && fsyncs >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("flusher never accounted for the records: batch sum = %v, fsyncs = %v", sum, fsyncs)
		}
		time.Sleep(time.Millisecond)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}
