package repl

// Replication-session instrumentation. The Tail already maintains
// atomic session counters for TailStats; Register exposes the same
// atomics as repl_* families, so /metrics and the /v1/stats
// replication block can never disagree. rate(repl_records_applied
// _total) is the follower apply rate; bootstraps and reconnects
// climbing together with a flat apply rate is the signature of a
// follower that cannot hold a stream (see docs/RUNBOOK.md).

import "carbonshift/internal/metrics"

// Register registers the tail's repl_* metric families on r. Call once
// per Tail.
func (t *Tail) Register(r *metrics.Registry) {
	r.NewCounterFunc("repl_records_applied_total",
		"Journal records applied from the replication stream.",
		func() float64 { return float64(t.records.Load()) })
	r.NewCounterFunc("repl_bootstraps_total",
		"Full snapshot bootstraps (first connect, 410 cursor loss, or apply error).",
		func() float64 { return float64(t.bootstraps.Load()) })
	r.NewCounterFunc("repl_reconnects_total",
		"Stream re-dials after a drop.",
		func() float64 { return float64(t.reconnects.Load()) })
	r.NewGaugeFunc("repl_primary_hour",
		"Primary's fleet hour from its latest heartbeat (-1 before one arrived).",
		func() float64 { return float64(t.primaryHour.Load()) })
}
