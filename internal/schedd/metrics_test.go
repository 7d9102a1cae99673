package schedd

import (
	"math"
	"testing"

	"carbonshift/internal/sched"
)

// TestMetricsStatsParity pins the design rule that /metrics and
// /v1/stats read the same fleet counters: after submissions, clock
// advances, misses, and completions, every shared quantity must agree
// exactly between a scrape and an adjacent stats snapshot.
func TestMetricsStatsParity(t *testing.T) {
	c := newCluster(t, world{policy: sched.FIFO{}, slots: 2, memory: true, cfg: Config{MaxQueue: 64}})
	srv, client, clock, ctx := c.primary.srv, c.primary.client, c.clock, c.ctx

	// A mix that produces completions, misses, and a standing queue:
	// more work than 2x2 slots can clear, some of it with no slack.
	for i := 0; i < 12; i++ {
		if _, err := client.Submit(ctx, JobRequest{Origin: "DIRTY", LengthHours: 4, SlackHours: 0}); err != nil {
			t.Fatal(err)
		}
	}
	clock.hour.Store(8)
	metric := scrape(t, client)
	st := srv.stats()

	for series, want := range map[string]float64{
		"schedd_jobs_submitted_total":  float64(st.Submitted),
		"schedd_jobs_completed_total":  float64(st.Completed),
		"schedd_jobs_missed_total":     float64(st.Missed),
		"schedd_jobs_running":          float64(st.Running),
		"schedd_queue_depth":           float64(st.QueueDepth),
		"schedd_jobs_unresolved":       float64(st.Unresolved),
		"schedd_fleet_hour":            float64(st.Hour),
		"schedd_fleet_horizon_hours":   float64(st.Horizon),
		"schedd_miss_rate":             st.MissRate,
		"schedd_utilization_ratio":     st.Utilization,
		"schedd_queue_limit":           64,
		"schedd_replication_lag_hours": 0,
	} {
		if got := metric(series); math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %v, want %v (stats parity)", series, got, want)
		}
	}
	if got, want := metric("schedd_emissions_grams_total"), st.TotalEmissionsG; math.Abs(got-want) > 1e-6*math.Max(1, want) {
		t.Errorf("schedd_emissions_grams_total = %v, want %v", got, want)
	}
	if st.Missed == 0 || st.Completed == 0 {
		t.Fatalf("weak fixture: missed=%d completed=%d — parity not exercised", st.Missed, st.Completed)
	}

	// The submit latency histogram observed exactly the 12 requests the
	// client pushed through the handler.
	if got := metric("schedd_submit_latency_seconds_count"); got != 12 {
		t.Errorf("schedd_submit_latency_seconds_count = %v, want 12", got)
	}
	if got := metric("schedd_step_latency_seconds_count"); got < 8 {
		t.Errorf("schedd_step_latency_seconds_count = %v, want >= 8 (one per stepped hour)", got)
	}
}

// TestMetricsCarbonSaved pins the run-at-origin counterfactual: under
// greenest-first, a migratable job originating in DIRTY during its
// dirty phase (200 g/kWh vs CLEAN's flat 20) executes on CLEAN, saving
// 180 g per executed hour; under FIFO the gauge stays zero.
func TestMetricsCarbonSaved(t *testing.T) {
	job := JobRequest{Origin: "DIRTY", LengthHours: 3, SlackHours: 24, Migratable: true, Interruptible: true}
	admit(t, world{policy: sched.GreenestFirst{}, slots: 2}, send(ok, job), hour(4),
		series(map[string]float64{`schedd_carbon_saved_grams{policy="greenest-first"}`: 3 * 180}))
	admit(t, world{policy: sched.FIFO{}, slots: 2}, send(ok, job), hour(4),
		series(map[string]float64{`schedd_carbon_saved_grams{policy="fifo"}`: 0}))
}

// TestWithoutMetrics asserts the opt-out really is one: no registry,
// no /metrics route, and the HTTP surface otherwise intact.
func TestWithoutMetrics(t *testing.T) {
	admit(t, world{policy: sched.FIFO{}, slots: 2, opts: []Option{WithoutMetrics()}},
		act(func(c *cluster) {
			if c.primary.srv.Metrics() != nil {
				t.Fatal("WithoutMetrics left a registry")
			}
		}),
		get("/metrics", refused(404, "", 0)),
		send(ok, cjob(1, 2)))
}

// failingPolicy plans a placement no fleet can apply, so the first
// live step after a submission poisons the server.
type failingPolicy struct{}

func (failingPolicy) Name() string { return "failing" }
func (failingPolicy) Plan(*sched.Tick) []sched.Placement {
	return []sched.Placement{{Job: 0, Region: -1}}
}

// TestMetricsScrapeOnPoisonedServer: a scrape must survive a server
// whose advance path is poisoned, so operators can see the failure.
func TestMetricsScrapeOnPoisonedServer(t *testing.T) {
	c := newCluster(t, world{policy: failingPolicy{}, slots: 2, memory: true})
	client := c.primary.client
	if _, err := client.Submit(c.ctx, JobRequest{Origin: "CLEAN", LengthHours: 1, SlackHours: 2}); err != nil {
		t.Fatal(err)
	}
	c.clock.hour.Store(1) // next advance trips the policy fault
	_, err := client.Stats(c.ctx)
	wantRefused(t, "stats on a poisoned server", err, refused(500, "", 0))
	if got := scrape(t, client)("schedd_jobs_submitted_total"); got != 1 {
		t.Errorf("poisoned-server scrape: submitted = %v, want 1", got)
	}
}

// BenchmarkScheddSubmit times one JSON job per request over a real TCP
// connection into the fleet, with metrics on and tracing sampled
// 1/1024 — the tracer's untraced fast path is what is measured, not the
// cost of recording spans. Beside BenchmarkScheddSubmitNoMetrics it is
// the instrumentation-overhead bar (within 5 %); the production
// topology's submit path is timed by go run ./bench.
func BenchmarkScheddSubmit(b *testing.B) {
	benchSubmit(b, Config{MaxJobs: 1 << 30, MaxQueue: 1 << 30, TraceSampleEvery: 1024})
}

// BenchmarkScheddSubmitNoMetrics is BenchmarkScheddSubmit with the
// metrics registry and the tracer disabled: the uninstrumented baseline.
func BenchmarkScheddSubmitNoMetrics(b *testing.B) {
	benchSubmit(b, Config{MaxJobs: 1 << 30, MaxQueue: 1 << 30}, WithoutMetrics(), WithoutTracing())
}

func benchSubmit(b *testing.B, cfg Config, opts ...Option) {
	client := newCluster(b, world{policy: sched.FIFO{}, horizon: 24 * 20, slots: 100, memory: true, cfg: cfg, opts: opts}).primary.client
	req := JobRequest{Origin: "CLEAN", LengthHours: 4, SlackHours: 48, Interruptible: true, Migratable: true}
	ctx := b.Context()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := client.Submit(ctx, req); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "jobs/s")
}
