package gateway

// The gateway's /metrics is a fleet-wide merged exposition: every
// partition's schedd families folded into one series set, plus the
// gateway's own gateway_* and http_* families. Counters and most
// gauges sum across partitions; the families where a sum is
// meaningless (the fleet clock, replication lag, ratios) take the max
// instead, which is the conservative alerting direction for all of
// them.

import (
	"bytes"
	"net/http"
	"strconv"

	"carbonshift/internal/metrics"
	"carbonshift/internal/serve"
)

// gwMetrics holds the gateway's own instrumentation.
type gwMetrics struct {
	reg  *metrics.Registry
	http *serve.HTTPMetrics

	proxied       *metrics.Counter
	split         *metrics.Counter
	partial       *metrics.Counter
	statsPartial  *metrics.Counter
	topoConflicts *metrics.Counter
	partErrors    *metrics.CounterVec
}

func (g *Gateway) initMetrics() {
	reg := metrics.NewRegistry()
	mx := &gwMetrics{
		reg:  reg,
		http: serve.NewHTTPMetrics(reg),
		proxied: reg.NewCounter("gateway_proxied_submits_total",
			"Submissions that landed in one partition and were proxied raw."),
		split: reg.NewCounter("gateway_split_submits_total",
			"Submissions split across two or more partitions."),
		partial: reg.NewCounter("gateway_partial_batches_total",
			"Split submissions answered 207 Multi-Status (mixed per-partition outcomes)."),
		statsPartial: reg.NewCounter("gateway_stats_partial_total",
			"Fleet-wide stats or metrics scatters that missed at least one partition."),
		topoConflicts: reg.NewCounter("gateway_topology_conflicts_total",
			"Region ownership claims that conflicted between partitions."),
		partErrors: reg.NewCounterVec("gateway_partition_errors_total",
			"Transport-level failures talking to a partition (all its endpoints down).",
			"partition"),
	}
	partitionUp := reg.NewGaugeVec("gateway_partition_up",
		"1 when the partition's last call succeeded, 0 after a transport failure.",
		"partition")
	reg.NewGaugeFunc("gateway_partitions",
		"Number of schedd partitions configured behind this gateway.",
		func() float64 { return float64(len(g.parts)) })
	// Create each partition's series now, so one that has never been
	// reached still shows up (as up=0) instead of being absent, and hand
	// it to the partition: call sets it on every request without a label
	// lookup.
	for _, p := range g.parts {
		p.up = partitionUp.With(strconv.Itoa(p.index))
		p.up.Set(0)
	}
	g.mx = mx
}

// Metrics exposes the gateway's own registry (the gateway_* and http_*
// families, without the partition merge) for tests and embedding.
func (g *Gateway) Metrics() *metrics.Registry {
	return g.mx.reg
}

// handleMetrics scatter-gathers every partition's /metrics and writes
// one merged exposition, gateway families first. A partition that
// cannot be scraped is skipped (and its gateway_partition_up goes 0);
// the merge is served from whatever answered.
func (g *Gateway) handleMetrics(w http.ResponseWriter, r *http.Request) {
	bodies := make([][]byte, len(g.parts))
	scatter(g.parts, func(p *partition) {
		resp, err := g.call(r.Context(), p, http.MethodGet, "/metrics", "", nil)
		if err == nil && resp.StatusCode == http.StatusOK {
			bodies[p.index] = resp.Body
		}
	})

	m := metrics.NewMerger(maxFamilies)
	var own bytes.Buffer
	g.mx.reg.WriteTo(&own)
	m.Absorb(own.Bytes())
	missed := 0
	for _, b := range bodies {
		if b == nil {
			missed++
			continue
		}
		m.Absorb(b)
	}
	if missed > 0 {
		g.mx.statsPartial.Inc()
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	m.WriteTo(w)
}

// maxFamilies are the families where summing across partitions is
// wrong: clocks, lag, generations, flags, and ratios take the max.
var maxFamilies = map[string]bool{
	"schedd_fleet_hour":            true,
	"schedd_fleet_horizon_hours":   true,
	"schedd_replication_lag_hours": true,
	"schedd_wal_generation":        true,
	"schedd_recovered":             true,
	"schedd_utilization_ratio":     true,
	"schedd_miss_rate":             true,
}
