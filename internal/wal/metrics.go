package wal

// Journal instrumentation. The journal is the one component whose
// latency an operator cannot infer from request latencies alone: in
// SyncAlways mode every acknowledgement waits on a group-commit fsync,
// and in SyncBatch mode a slow disk silently widens the loss window.
// These metrics make both visible:
//
//	wal_fsync_seconds            histogram of each fsync's duration
//	wal_fsync_batch_records      histogram of records per group commit
//	wal_records_appended_total   records appended
//	wal_appended_bytes_total     journal bytes written (header + payload)
//
// A JournalMetrics is shared across generations (rotation creates a
// new Journal but the series keep accumulating) and across the fsync
// disciplines — the batch flusher and the group-commit path feed the
// same histograms.

import (
	"time"

	"carbonshift/internal/metrics"
)

// JournalMetrics holds the journal's instruments. A journal opened
// without one (nil Options.Metrics) pays one branch per event.
type JournalMetrics struct {
	// FsyncSeconds observes the duration of every fsync, whichever
	// discipline triggered it.
	FsyncSeconds *metrics.Histogram
	// BatchRecords observes how many records each fsync made durable —
	// the group-commit amplification factor. A manual Sync with nothing
	// pending observes a batch of zero, so this histogram's count always
	// equals FsyncSeconds's and its sum equals Records.
	BatchRecords *metrics.Histogram
	// Records counts appended records.
	Records *metrics.Counter
	// AppendedBytes counts journal bytes written, framing included.
	AppendedBytes *metrics.Counter
}

// NewJournalMetrics registers the wal_* families on r.
func NewJournalMetrics(r *metrics.Registry) *JournalMetrics {
	return &JournalMetrics{
		FsyncSeconds: r.NewHistogram("wal_fsync_seconds",
			"Duration of each journal fsync, any sync discipline.",
			metrics.DefLatencyBuckets),
		BatchRecords: r.NewHistogram("wal_fsync_batch_records",
			"Records made durable per fsync (group-commit batch size).",
			metrics.DefSizeBuckets),
		Records: r.NewCounter("wal_records_appended_total",
			"Journal records appended."),
		AppendedBytes: r.NewCounter("wal_appended_bytes_total",
			"Journal bytes written, record framing included."),
	}
}

// observeFsync records one fsync: its duration and how many records it
// made durable. Both histograms are fed unconditionally — a zero-record
// fsync still measures the disk — so their counts stay equal and the
// batch sum partitions the appended records exactly.
func (m *JournalMetrics) observeFsync(start time.Time, records uint64) {
	if m == nil {
		return
	}
	m.FsyncSeconds.Observe(time.Since(start).Seconds())
	m.BatchRecords.Observe(float64(records))
}

// observeAppend records one buffered record.
func (m *JournalMetrics) observeAppend(payloadLen int) {
	if m == nil {
		return
	}
	m.Records.Inc()
	m.AppendedBytes.Add(uint64(recordHeaderLen + payloadLen))
}
