package schedd

// The server's Prometheus instrumentation (GET /metrics). Two rules
// shape it:
//
// 1. Fleet-derived quantities are callback-backed (CounterFunc /
//    GaugeFunc over the fleet's O(1) incremental counters), so
//    /metrics and /v1/stats read the same numbers and can never
//    disagree — a property the metrics parity test pins.
//
// 2. Hot paths pay atomics only. The submit handler observes one
//    histogram sample; admission rejections bump a counter; Step wraps
//    one timestamp pair around the fleet call under stepMu. Nothing on
//    a request path takes a metrics lock or allocates.
//
// Carbon-saved attribution: for every executed job-hour that ran away
// from its origin, the fleet's one placement hook (onPlace, schedd.go,
// fired from Step's advance phase) adds the Placed's
//
//	OriginCI − CI = I(origin, hour) − I(placed region, hour)
//
// to schedd_carbon_saved_grams{policy="..."} — the emissions a
// counterfactual scheduler running the same job-hour at the job's
// origin region would have paid, minus what the policy actually paid.
// This is the paper's spatial-shifting savings, measured live. It
// compares regions within one hour, so it credits no temporal
// shifting: a job-hour deferred but run at its origin adds 0. FIFO
// places every job at its origin, so its gauge reads ~0 — the sanity
// anchor.
//
// The gauge counts only job-hours this process stepped: live, or
// replayed from the journal on boot or by a follower. Job-hours that a
// restored snapshot already held (boot recovery or a follower's
// bootstrap) were stepped by an earlier process and are not counted
// again, so after a restart the gauge covers the hours from the
// snapshot's hour on.

import (
	"errors"
	"net/http"
	"time"

	"carbonshift/internal/metrics"
	"carbonshift/internal/sched"
	"carbonshift/internal/serve"
	"carbonshift/internal/tenant"
	"carbonshift/internal/wal"
)

// serverMetrics bundles the server's instruments.
type serverMetrics struct {
	registry *metrics.Registry

	submitSeconds *metrics.Histogram
	stepSeconds   *metrics.Histogram
	backpressure  *metrics.CounterVec
	submits       map[*Wire]*metrics.Counter // schedd_submit_requests_total{proto}; read-only after init
	carbonSaved   *metrics.Gauge             // the policy-labeled child

	// Tenancy families (nil without Config.Tenants). tenantRejected and
	// tenantCarbon are event-driven (admission rejections, placement
	// attribution); tenantStats mirror the fleet's per-tenant counters,
	// one per tenantGauges entry, and are refreshed at scrape time
	// (refreshTenantMetrics), the labeled analogue of the
	// callback-backed fleet gauges. Labels are bounded by tenantLabel:
	// configured names pass through, everything else aggregates under
	// "other".
	tenantRejected *metrics.CounterVec // schedd_tenant_rejected_total{tenant,reason}
	tenantCarbon   *metrics.GaugeVec   // schedd_tenant_carbon_saved_grams{tenant}
	tenantStats    []*metrics.GaugeVec

	wal  *wal.JournalMetrics
	http *serve.HTTPMetrics
}

// Metrics returns the server's registry, so embedders can add their
// own families.
func (s *Server) Metrics() *metrics.Registry { return s.mx.registry }

// initMetrics registers every schedd_* family. Called from New before
// recovery runs, so the journal opened by openDurable is metered from
// its first record — but recovery's own replay stepping deliberately
// bypasses stepOnce, so schedd_step_latency_seconds covers live
// stepping only.
func (s *Server) initMetrics() {
	r := metrics.NewRegistry()
	mx := &serverMetrics{
		registry: r,
		wal:      wal.NewJournalMetrics(r),
		http:     serve.NewHTTPMetrics(r),
	}
	metrics.RegisterRuntime(r)

	st := func() sched.FleetStats { return s.fleet.Stats() }
	r.NewCounterFunc("schedd_jobs_submitted_total",
		"Jobs admitted into the fleet (recovered jobs included).",
		func() float64 { return float64(st().Submitted) })
	r.NewCounterFunc("schedd_jobs_completed_total",
		"Jobs that finished all their work.",
		func() float64 { return float64(st().Completed) })
	r.NewCounterFunc("schedd_jobs_missed_total",
		"Jobs whose deadline passed before completion.",
		func() float64 { return float64(st().Missed) })
	r.NewGaugeFunc("schedd_jobs_running",
		"Jobs that executed in the most recent fleet hour.",
		func() float64 { return float64(st().Running) })
	r.NewGaugeFunc("schedd_queue_depth",
		"Admitted jobs waiting (unresolved minus running) — the same number /v1/stats reports as queue_depth.",
		func() float64 { return float64(st().Queued) })
	r.NewGaugeFunc("schedd_jobs_unresolved",
		"Admitted jobs not yet completed or missed; the quantity bounded by schedd_queue_limit.",
		func() float64 { return float64(st().Unresolved) })
	r.NewGaugeFunc("schedd_fleet_hour",
		"The fleet's current replay hour.",
		func() float64 { return float64(st().Hour) })
	r.NewGaugeFunc("schedd_fleet_horizon_hours",
		"The exclusive final replay hour.",
		func() float64 { return float64(s.cfg.Horizon) })
	r.NewGaugeFunc("schedd_job_limit",
		"Config.MaxJobs: total jobs the store retains before 503s.",
		func() float64 { return float64(s.cfg.MaxJobs) })
	r.NewGaugeFunc("schedd_queue_limit",
		"Config.MaxQueue: unresolved jobs allowed before 503s.",
		func() float64 { return float64(s.cfg.MaxQueue) })
	r.NewGaugeFunc("schedd_jobs_stored",
		"Jobs currently retained in the store; the quantity bounded by schedd_job_limit.",
		func() float64 { return float64(s.fleet.Jobs()) })
	r.NewCounterFunc("schedd_emissions_grams_total",
		"Cumulative emissions of executed work, gCO2eq — /v1/stats total_emissions_g.",
		func() float64 { return st().TotalEmissions })
	r.NewGaugeFunc("schedd_utilization_ratio",
		"Used slot-hours over elapsed slot-hours, 0..1.",
		func() float64 { return st().Utilization() })
	r.NewGaugeFunc("schedd_miss_rate",
		"Missed jobs over submitted jobs, 0..1.",
		func() float64 {
			fs := st()
			if fs.Submitted == 0 {
				return 0
			}
			return float64(fs.Missed) / float64(fs.Submitted)
		})
	r.NewGaugeFunc("schedd_replication_lag_hours",
		"Fleet hours this follower trails the primary's last heartbeat (0 on primaries and caught-up followers).",
		func() float64 { return float64(s.role.Load().session.lag(s.fleet.Hour())) })
	r.NewGaugeFunc("schedd_wal_generation",
		"Live snapshot+journal generation (0 without a data dir).",
		func() float64 { return float64(s.Generation()) })
	r.NewGaugeFunc("schedd_recovered",
		"1 when this process restored a previous incarnation's state (journal recovery or promotion).",
		func() float64 {
			if s.Recovery().Recovered {
				return 1
			}
			return 0
		})

	mx.submitSeconds = r.NewHistogram("schedd_submit_latency_seconds",
		"Submit handler duration (JSON and binary routes), durability wait included.",
		metrics.DefLatencyBuckets)
	mx.stepSeconds = r.NewHistogram("schedd_step_latency_seconds",
		"Duration of one live fleet Step (one replay hour).",
		metrics.DefLatencyBuckets)
	mx.backpressure = r.NewCounterVec("schedd_backpressure_total",
		"Submissions rejected under load — 503 for full stores/queues and an exhausted horizon, 413 for oversized bodies — by reason.", "reason")
	submitProto := r.NewCounterVec("schedd_submit_requests_total",
		"Submit requests by wire protocol (json = POST /v1/jobs, binary = POST /v1/jobs/batch).", "proto")
	mx.submits = make(map[*Wire]*metrics.Counter, len(Wires))
	for _, wire := range Wires {
		// Resolved here so both series exist from the first scrape and
		// the request path pays no vector lookup.
		mx.submits[wire] = submitProto.With(wire.Proto)
	}
	mx.carbonSaved = r.NewGaugeVec("schedd_carbon_saved_grams",
		"Cumulative gCO2eq saved versus running each executed job-hour at the job's origin region.",
		"policy").With(s.cfg.Policy.Name())

	if s.cfg.Tenants != nil {
		mx.tenantRejected = r.NewCounterVec("schedd_tenant_rejected_total",
			"Jobs rejected by the tenant admission gate (429), by tenant and reason (quota, rate).", "tenant", "reason")
		mx.tenantCarbon = r.NewGaugeVec("schedd_tenant_carbon_saved_grams",
			"Cumulative gCO2eq saved versus origin-region execution, attributed to the tenant whose job-hour moved.", "tenant")
		for _, g := range tenantGauges {
			mx.tenantStats = append(mx.tenantStats, r.NewGaugeVec(g.name, g.help, "tenant"))
		}
	}

	s.mx = mx
}

// tenantGauges are the families that mirror sched.TenantStat, each
// with the field it reads.
var tenantGauges = []struct {
	name, help string
	read       func(sched.TenantStat) float64
}{
	{"schedd_tenant_jobs_submitted", "Jobs admitted into the fleet, by tenant.",
		func(t sched.TenantStat) float64 { return float64(t.Submitted) }},
	{"schedd_tenant_jobs_completed", "Jobs that finished all their work, by tenant.",
		func(t sched.TenantStat) float64 { return float64(t.Completed) }},
	{"schedd_tenant_jobs_missed", "Jobs whose deadline passed before completion, by tenant.",
		func(t sched.TenantStat) float64 { return float64(t.Missed) }},
	{"schedd_tenant_jobs_running", "Jobs that executed in the most recent fleet hour, by tenant.",
		func(t sched.TenantStat) float64 { return float64(t.Running) }},
	{"schedd_tenant_queue_depth", "Admitted jobs waiting (unresolved minus running), by tenant.",
		func(t sched.TenantStat) float64 { return float64(t.Queued) }},
	{"schedd_tenant_slot_hours", "Slot-hours executed, by tenant — the fairness quantity the weighted-fair dequeue divides.",
		func(t sched.TenantStat) float64 { return float64(t.SlotHours) }},
	{"schedd_tenant_emissions_grams", "Cumulative emissions of executed work, gCO2eq, by tenant.",
		func(t sched.TenantStat) float64 { return t.Emissions }},
}

// tenantLabel bounds per-tenant label cardinality: configured tenant
// names pass through, anything else — including the implicit default
// tenant unless it is declared — aggregates under "other".
func (s *Server) tenantLabel(name string) string {
	name = tenant.Normalize(name)
	if _, ok := s.tenants[name]; ok {
		return name
	}
	return "other"
}

// countTenantRejected records a gate rejection: n jobs for the tenant,
// under the reason the gate error carries.
func (s *Server) countTenantRejected(name string, n int, err error) {
	if s.mx.tenantRejected == nil {
		return
	}
	reason := "quota"
	if errors.Is(err, tenant.ErrRate) {
		reason = "rate"
	}
	s.mx.tenantRejected.With(s.tenantLabel(name), reason).Add(uint64(n))
}

// refreshTenantMetrics re-renders the per-tenant gauge families from
// the fleet's live per-tenant counters — called on each scrape, so the
// families track /v1/stats exactly. Stats for tenants outside the
// configured set are summed into the "other" label rather than
// overwriting each other.
func (s *Server) refreshTenantMetrics() {
	if s.mx.tenantStats == nil {
		return
	}
	agg := make(map[string]sched.TenantStat)
	for name, t := range s.fleet.TenantStats() {
		l := s.tenantLabel(name)
		a := agg[l]
		a.Add(t)
		agg[l] = a
	}
	for l, a := range agg {
		for i, g := range tenantGauges {
			s.mx.tenantStats[i].With(l).Set(g.read(a))
		}
	}
}

// stepOnce advances the fleet one hour and times the step. All live
// stepping (advance, Drain) goes through it; recovery and follower
// replay do not.
func (s *Server) stepOnce() error {
	t0 := time.Now()
	err := s.fleet.Step()
	s.mx.stepSeconds.Observe(time.Since(t0).Seconds())
	return err
}

// countBackpressure records one rejected submission (503, or 413 for
// the oversize reason).
func (s *Server) countBackpressure(reason string) {
	s.mx.backpressure.With(reason).Inc()
}

// handleMetrics serves GET /metrics. It advances the replay clock
// first (best-effort — a poisoned server still serves its metrics, so
// an operator can see what poisoned it) to keep the fleet-derived
// gauges as fresh as a /v1/stats poll.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.advance(r.Context()) //nolint:errcheck — scrape must not fail with the server
	s.refreshTenantMetrics()
	s.mx.registry.Handler().ServeHTTP(w, r)
}
