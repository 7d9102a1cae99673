// Package carbonshift reproduces "On the Limitations of Carbon-Aware
// Temporal and Spatial Workload Shifting in the Cloud" (EuroSys 2024)
// as a Go library: a generative grid simulator standing in for the
// Electricity Maps dataset, the temporal and spatial shifting policy
// engines, the what-if scenario machinery, and one experiment per
// figure of the paper's evaluation.
//
// # Architecture
//
// The implementation lives under internal/ (see DESIGN.md for the full
// system inventory) and is exercised through the cmd/ tools. Three
// layers matter most:
//
//   - internal/core builds the dataset each entry reads (the full
//     catalog for the paper's figures, a study's own regions and
//     period for a study) and implements one experiment per paper
//     figure. Each experiment decomposes into independent
//     (region × policy × scenario) cells.
//   - internal/engine is the concurrent experiment engine: a
//     context-aware, bounded worker pool that fans those cells across
//     goroutines while keeping every output byte-identical to a serial
//     run. Experiments accept a context.Context and honour
//     cancellation mid-run; the -workers CLI flag (default: one worker
//     per CPU) bounds the fan-out, and -workers 1 is the serial
//     reference path.
//   - internal/simgrid synthesizes the hourly carbon-intensity traces
//     and memoizes them in a process-level cache keyed by the full
//     simulation fingerprint, so each (region, config) trace is
//     generated exactly once per process no matter how many
//     experiments, labs, or benchmark iterations ask for it;
//     simgrid.World builds the online service's traces from its
//     region codes through the same cache.
//
// # Online scheduling
//
// Beyond the offline experiments, the repository runs as a live
// system. internal/sched's incremental Fleet
// (Submit/Step/Snapshot) is the one engine behind both the batch
// sched.Run and internal/schedd, the online scheduling service — one
// submission-ordered job list, stepped serially hour by hour, so
// placements are byte-identical to the serial reference scheduler the
// tests keep. cmd/schedd serves job submission, status, and O(1) fleet
// statistics over HTTP against a replayed grid clock, with policy
// selection, backpressure bounds, and a graceful drain on SIGINT; cmd/loadgen benchmarks it with a deterministic workload
// stream shaped by -profile (steady, bursty, diurnal,
// migratable-heavy) and reports throughput, nearest-rank latency
// percentiles, and the carbon saving versus an offline FIFO baseline.
// The online and offline paths are provably the same scheduler:
// equivalence tests assert byte-identical placements and emissions
// between an HTTP-driven run, the fleet, the serial reference and
// sched.Run, and property-based invariant tests plus
// native fuzz targets (request parsing, client error mapping, journal
// replay) harden the serving surface.
//
// The service is durable: with -data-dir set, schedd journals every
// admission and hour watermark through internal/wal (an append-only,
// CRC-checksummed log with group-commit fsync) and periodically
// snapshots the full fleet state via Fleet.Marshal's versioned
// binary image; on boot it restores the newest snapshot and replays the
// journal tail — tolerating torn final writes — recovering state
// byte-identical to a process that never stopped, as proven by a
// crash-point sweep test across all five policies.
//
// The service is replicated: internal/repl streams that same journal
// over HTTP (resumable cursors, long-poll, snapshot bootstrap, a
// versioned and fuzz-hardened frame format) to hot standbys started
// with schedd -follow. Because journal order is exact fleet-event
// order, a follower applying the stream in sequence is byte-identical
// to the primary at every shared watermark — the replication
// equivalence and prefix-consistency tests pin this for every policy,
// and a chaos test (random partitions and
// follower restarts mid-stream, under -race) proves cursor resume
// never gaps or double-applies. Followers serve read-only job status
// and stats with an X-Replication-Lag-Hours header, reject writes with
// 421 plus a primary hint (which httpx's failover client follows
// automatically), and promote to primary — new journal generation
// under their own flock — on POST /v1/repl/promote or on primary
// health-probe loss; the CI failover e2e kills the primary with
// kill -9 mid-load and asserts zero acknowledged-job loss.
//
// The service is observable: every cmd/ server exposes GET /metrics
// in the Prometheus text format via internal/metrics, a dependency-
// free registry whose hot-path cost is a few atomics. Scheduling
// counters are callback-backed over the same fleet counters /v1/stats
// reads (the two endpoints cannot disagree), latency histograms cover
// submission, stepping, and WAL fsync, and followers report
// replication lag and apply rate. docs/OBSERVABILITY.md documents
// every family, docs/RUNBOOK.md gives per-alert remediation, and
// examples/dashboard/ ships scrape config, alert rules, and a Grafana
// dashboard — all pinned to the live /metrics surface by a drift
// test. cmd/loadgen's -scrape mode asserts the metrics pipeline end
// to end in CI.
//
// Determinism is load-bearing: stochastic cells derive their random
// streams by pre-splitting an explicitly seeded generator
// (internal/rng.SplitN), never from worker identity or scheduling
// order, and every reduction over cell results runs in submission
// order. The serial-vs-parallel equivalence is asserted by tests and
// measured by the BenchmarkEngine* pairs in internal/core.
//
// The root package holds only this documentation. The performance
// harness is go run ./bench; cmd/carbonlimits -all prints every table
// and figure.
package carbonshift
