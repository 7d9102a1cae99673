package main

import (
	"fmt"
	"sort"
)

// metricDef names one metric of the benchmark. BENCHMARK.json is
// rendered from the tables below; TestManifest fails if the committed
// file and the tables drift apart.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	// Bound is the share of the parent's median a user-facing metric
	// may worsen before a change counts as a regression; layer metrics
	// have none.
	Bound float64
	// Part says which workloads measure a user-facing metric: a metric
	// that does not apply to a workload is omitted from its untraced run,
	// never reported as 0.
	Part part
	// Demoted marks a user-facing metric whose run-to-run spread on the
	// reference sandbox cannot support its bound. It keeps the bound for
	// -compare, which reports it as unresolved where the spread exceeds
	// it, but BENCHMARK.json lists it under per_layer (no bound, no
	// gate), and the driver reads it from the traced run's spans-off,
	// one-client replay. See README.md, "Bounds and demotions".
	Demoted bool
}

type part int

const (
	everyWorkload part = iota
	onlineOnly
	offlineOnly
)

// nominalSeconds is BENCHMARK.json's run_seconds: -seconds N sizes a
// run to measure for about N seconds on the reference 2-core sandbox,
// and N = nominalSeconds is the size every committed number refers to.
const nominalSeconds = 20

// fullSizeSeconds is what the issue's full sizes would measure for;
// sizes are multiplied by seconds ÷ fullSizeSeconds.
const fullSizeSeconds = 50

// userFacing are the issue's ten end-to-end metrics with the issue's
// bounds, all measured by the untraced run (two closed-loop clients).
var userFacing = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "jobs_per_s", Unit: "jobs/s", Better: "higher", Bound: 0.10, Part: onlineOnly, Demoted: true},
	{Name: "ack_p50_us", Unit: "us", Better: "lower", Bound: 0.10, Part: onlineOnly, Demoted: true},
	{Name: "ack_p99_us", Unit: "us", Better: "lower", Bound: 0.10, Part: onlineOnly, Demoted: true},
	{Name: "lookup_p50_us", Unit: "us", Better: "lower", Bound: 0.10, Part: onlineOnly, Demoted: true},
	{Name: "drain_hours_per_s", Unit: "h/s", Better: "higher", Bound: 0.10, Part: onlineOnly, Demoted: true},
	{Name: "recovery_s", Unit: "s", Better: "lower", Bound: 0.10, Part: onlineOnly, Demoted: true},
	{Name: "analysis_s", Unit: "s", Better: "lower", Bound: 0.10, Part: offlineOnly, Demoted: true},
	{Name: "oracle_s", Unit: "s", Better: "lower", Bound: 0.10, Part: offlineOnly, Demoted: true},
	{Name: "heap_mb", Unit: "MB", Better: "lower", Bound: 0.10},
}

// gated are BENCHMARK.json's end_to_end metrics: the ones a driver can
// hold a later change to. Every workload measures each of them.
func gated() []metricDef {
	var out []metricDef
	for _, d := range userFacing {
		if !d.Demoted {
			out = append(out, d)
		}
	}
	return out
}

// measuredBy are the user-facing metrics an untraced run of w measures.
func measuredBy(w workloadSpec) []metricDef {
	var out []metricDef
	for _, d := range userFacing {
		if d.Part == everyWorkload || (d.Part == onlineOnly) == (w.Online != nil) {
			out = append(out, d)
		}
	}
	return out
}

// tracedDefs are BENCHMARK.json's per_layer metrics, which a traced run
// reports: the demoted user-facing metrics, then the layers.
func tracedDefs() []metricDef {
	var out []metricDef
	for _, d := range userFacing {
		if d.Demoted {
			out = append(out, d)
		}
	}
	return append(out, perLayer...)
}

var perLayer = []metricDef{
	{Name: "httpx.client_self_us_p50", Unit: "us", Better: "lower"},
	{Name: "gateway.submit_self_us_p50", Unit: "us", Better: "lower"},
	{Name: "gateway.upstream_rtt_us_p50", Unit: "us", Better: "lower"},
	{Name: "gateway.split_frac", Unit: "ratio", Better: "lower"},
	{Name: "gateway.lookup_self_us_p50", Unit: "us", Better: "lower"},
	{Name: "gateway.stats_scatter_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "gateway.metrics_scrape_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "schedd.handler_us_p50", Unit: "us", Better: "lower"},
	{Name: "schedd.lookup_handler_us_p50", Unit: "us", Better: "lower"},
	{Name: "schedd.lookup_beside_drain_us_p50", Unit: "us", Better: "lower"},
	{Name: "schedd.handler_nowal_us_p50", Unit: "us", Better: "lower"},
	{Name: "schedd.decode_json_ns_per_job", Unit: "ns/job", Better: "lower"},
	{Name: "schedd.decode_binary_ns_per_job", Unit: "ns/job", Better: "lower"},
	{Name: "schedd.encode_binary_ns_per_job", Unit: "ns/job", Better: "lower"},
	{Name: "schedd.ack_codec_ns_per_job", Unit: "ns/job", Better: "lower"},
	{Name: "schedd.step_ms_mean", Unit: "ms", Better: "lower"},
	{Name: "schedd.steps", Unit: "count", Better: "lower"},
	{Name: "schedd.hour_tick_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "schedd.hour_tick_ms_max", Unit: "ms", Better: "lower"},
	{Name: "schedd.apply_record_us_mean", Unit: "us", Better: "lower"},
	{Name: "schedd.recovery_records_per_s", Unit: "1/s", Better: "higher"},
	{Name: "schedd.handler_unattributed_us_p50", Unit: "us", Better: "lower"},
	{Name: "wal.fsync_ms_mean", Unit: "ms", Better: "lower"},
	{Name: "wal.fsyncs_per_job", Unit: "ratio", Better: "lower"},
	{Name: "wal.records_per_fsync_mean", Unit: "count", Better: "higher"},
	{Name: "wal.bytes_per_job", Unit: "B/job", Better: "lower"},
	{Name: "wal.append_always_us_p50", Unit: "us", Better: "lower"},
	{Name: "wal.append_batch_ns_per_job", Unit: "ns/job", Better: "lower"},
	{Name: "wal.replay_records_per_s", Unit: "1/s", Better: "higher"},
	{Name: "wal.snapshot_write_ms", Unit: "ms", Better: "lower"},
	{Name: "sched.submit_ns_per_job", Unit: "ns/job", Better: "lower"},
	{Name: "sched.step_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "sched.step_ms_p99", Unit: "ms", Better: "lower"},
	{Name: "sched.step_total_s", Unit: "s", Better: "lower"},
	{Name: "sched.marshal_ms", Unit: "ms", Better: "lower"},
	{Name: "sched.unmarshal_ms", Unit: "ms", Better: "lower"},
	{Name: "sched.image_bytes_per_job", Unit: "B/job", Better: "lower"},
	{Name: "sched.admit_codec_ns_per_job", Unit: "ns/job", Better: "lower"},
	{Name: "sched.lookup_ns", Unit: "ns", Better: "lower"},
	{Name: "sched.run_s.fifo", Unit: "s", Better: "lower"},
	{Name: "sched.run_s.spatiotemporal", Unit: "s", Better: "lower"},
	{Name: "repl.catchup_ms", Unit: "ms", Better: "lower"},
	{Name: "repl.bootstrap_s", Unit: "s", Better: "lower"},
	{Name: "repl.frame_decode_ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "tenant.gate_ns_per_job", Unit: "ns/job", Better: "lower"},
	{Name: "tenant.fair_order_us", Unit: "us", Better: "lower"},
	{Name: "simgrid.generate_s", Unit: "s", Better: "lower"},
	{Name: "core.exp_s.fig4", Unit: "s", Better: "lower"},
	{Name: "core.exp_s.fig6a", Unit: "s", Better: "lower"},
	{Name: "core.exp_s.fig7", Unit: "s", Better: "lower"},
	{Name: "core.exp_s.fig10d", Unit: "s", Better: "lower"},
	{Name: "core.exp_s.fig11b", Unit: "s", Better: "lower"},
	{Name: "core.exp_s.fig11d", Unit: "s", Better: "lower"},
	{Name: "core.exp_s.ext-contention", Unit: "s", Better: "lower"},
	{Name: "core.exp_s.rest", Unit: "s", Better: "lower"},
	{Name: "engine.cpu_util", Unit: "ratio", Better: "higher"},
	{Name: "runtime.mallocs_per_job", Unit: "1/job", Better: "lower"},
	{Name: "runtime.alloc_bytes_per_job", Unit: "B/job", Better: "lower"},
	{Name: "runtime.gc_pause_ms_total", Unit: "ms", Better: "lower"},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "runtime.cpu_s_per_kjob", Unit: "s", Better: "lower"},
	{Name: "runtime.peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "trace.overhead_frac", Unit: "ratio", Better: "lower"},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// render turns measured values into the reported form, insisting that
// exactly the defined metrics were measured.
func render(defs []metricDef, values map[string]float64) (map[string]metric, error) {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		out[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	if len(values) != len(defs) {
		var extra []string
		for name := range values {
			if _, ok := out[name]; !ok {
				extra = append(extra, name)
			}
		}
		sort.Strings(extra)
		return nil, fmt.Errorf("measured metrics the benchmark does not define: %v", extra)
	}
	return out, nil
}
