package schedd

import (
	"context"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"carbonshift/internal/metrics"
	"carbonshift/internal/sched"
)

// scrapeServer fetches and parses the server's /metrics through the
// full handler stack (middleware included).
func scrapeServer(t *testing.T, h http.Handler) *metrics.Scrape {
	t.Helper()
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("GET /metrics = %d, want 200", rr.Code)
	}
	if ct := rr.Header().Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("GET /metrics Content-Type = %q", ct)
	}
	sc, err := metrics.ParseText(rr.Body)
	if err != nil {
		t.Fatalf("exposition does not parse: %v", err)
	}
	return sc
}

func metricVal(t *testing.T, sc *metrics.Scrape, series string) float64 {
	t.Helper()
	v, ok := sc.Value(series)
	if !ok {
		t.Fatalf("series %s missing from /metrics", series)
	}
	return v
}

// TestMetricsStatsParity pins the design rule that /metrics and
// /v1/stats read the same fleet counters: after submissions, clock
// advances, misses, and completions, every shared quantity must agree
// exactly between a scrape and an adjacent stats snapshot.
func TestMetricsStatsParity(t *testing.T) {
	srv, client, clock := startServer(t, Config{Policy: sched.FIFO{}, MaxQueue: 64}, 2)
	ctx := context.Background()

	// A mix that produces completions, misses, and a standing queue:
	// more work than 2x2 slots can clear, some of it with no slack.
	for i := 0; i < 12; i++ {
		if _, err := client.Submit(ctx, JobRequest{Origin: "DIRTY", LengthHours: 4, SlackHours: 0}); err != nil {
			t.Fatal(err)
		}
	}
	clock.hour.Store(8)
	h := srv.Handler()
	sc := scrapeServer(t, h)
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
		if got := metricVal(t, sc, series); math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %v, want %v (stats parity)", series, got, want)
		}
	}
	if got, want := metricVal(t, sc, "schedd_emissions_grams_total"), st.TotalEmissionsG; math.Abs(got-want) > 1e-6*math.Max(1, want) {
		t.Errorf("schedd_emissions_grams_total = %v, want %v", got, want)
	}
	if st.Missed == 0 || st.Completed == 0 {
		t.Fatalf("weak fixture: missed=%d completed=%d — parity not exercised", st.Missed, st.Completed)
	}

	// The submit latency histogram observed exactly the 12 requests the
	// client pushed through the handler.
	if got := metricVal(t, sc, "schedd_submit_latency_seconds_count"); got != 12 {
		t.Errorf("schedd_submit_latency_seconds_count = %v, want 12", got)
	}
	if got := metricVal(t, sc, "schedd_step_latency_seconds_count"); got < 8 {
		t.Errorf("schedd_step_latency_seconds_count = %v, want >= 8 (one per stepped hour)", got)
	}
}

// TestMetricsBackpressureCounter drives submissions into the queue
// bound and asserts the 503s are counted by reason.
func TestMetricsBackpressureCounter(t *testing.T) {
	srv, client, _ := startServer(t, Config{Policy: sched.FIFO{}, MaxQueue: 3}, 1)
	ctx := context.Background()
	rejected := 0
	for i := 0; i < 6; i++ {
		if _, err := client.Submit(ctx, JobRequest{Origin: "CLEAN", LengthHours: 2, SlackHours: 4}); err != nil {
			rejected++
		}
	}
	if rejected != 3 {
		t.Fatalf("rejected = %d, want 3", rejected)
	}
	sc := scrapeServer(t, srv.Handler())
	if got := metricVal(t, sc, `schedd_backpressure_total{reason="queue_full"}`); got != 3 {
		t.Errorf(`schedd_backpressure_total{reason="queue_full"} = %v, want 3`, got)
	}
	// The middleware counted the 503s under the submit route.
	if got := metricVal(t, sc, `http_requests_total{route="POST /v1/jobs",code="503"}`); got != 3 {
		t.Errorf(`http_requests_total{route="POST /v1/jobs",code="503"} = %v, want 3`, got)
	}
}

// TestMetricsCarbonSaved pins the run-at-origin counterfactual: under
// greenest-first, a migratable job originating in DIRTY during its
// dirty phase (200 g/kWh vs CLEAN's flat 20) executes on CLEAN, saving
// 180 g per executed hour; under FIFO the gauge stays zero.
func TestMetricsCarbonSaved(t *testing.T) {
	srv, client, clock := startServer(t, Config{Policy: sched.GreenestFirst{}}, 2)
	ctx := context.Background()
	if _, err := client.Submit(ctx, JobRequest{Origin: "DIRTY", LengthHours: 3, SlackHours: 24, Migratable: true, Interruptible: true}); err != nil {
		t.Fatal(err)
	}
	clock.hour.Store(4)
	sc := scrapeServer(t, srv.Handler())
	if got := metricVal(t, sc, `schedd_carbon_saved_grams{policy="greenest-first"}`); math.Abs(got-3*180) > 1e-9 {
		t.Errorf("carbon saved = %v, want %v (3 hours x (200-20))", got, 3.0*180)
	}

	fifoSrv, fifoClient, fifoClock := startServer(t, Config{Policy: sched.FIFO{}}, 2)
	if _, err := fifoClient.Submit(ctx, JobRequest{Origin: "DIRTY", LengthHours: 3, SlackHours: 24, Migratable: true, Interruptible: true}); err != nil {
		t.Fatal(err)
	}
	fifoClock.hour.Store(4)
	sc = scrapeServer(t, fifoSrv.Handler())
	if got := metricVal(t, sc, `schedd_carbon_saved_grams{policy="fifo"}`); got != 0 {
		t.Errorf("fifo carbon saved = %v, want 0 (fifo never moves work)", got)
	}
}

// TestWithoutMetrics asserts the opt-out really is one: no registry,
// no /metrics route, and the HTTP surface otherwise intact.
func TestWithoutMetrics(t *testing.T) {
	srv, client, _ := startServer(t, Config{Policy: sched.FIFO{}}, 2, WithoutMetrics())
	if srv.Metrics() != nil {
		t.Fatal("WithoutMetrics left a registry")
	}
	rr := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rr.Code != http.StatusNotFound {
		t.Fatalf("GET /metrics without metrics = %d, want 404", rr.Code)
	}
	if _, err := client.Submit(context.Background(), JobRequest{Origin: "CLEAN", LengthHours: 1, SlackHours: 2}); err != nil {
		t.Fatalf("submit on an un-instrumented server: %v", err)
	}
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
	srv, client, clock := startServer(t, Config{Policy: failingPolicy{}}, 2)
	if _, err := client.Submit(context.Background(), JobRequest{Origin: "CLEAN", LengthHours: 1, SlackHours: 2}); err != nil {
		t.Fatal(err)
	}
	clock.hour.Store(1) // next advance trips the policy fault
	rr := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	if rr.Code != http.StatusInternalServerError {
		t.Fatalf("stats on poisoned server = %d, want 500", rr.Code)
	}
	sc := scrapeServer(t, srv.Handler())
	if got := metricVal(t, sc, "schedd_jobs_submitted_total"); got != 1 {
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
	benchSubmit(b, Config{Policy: sched.FIFO{}, MaxJobs: 1 << 30, MaxQueue: 1 << 30, TraceSampleEvery: 1024})
}

// BenchmarkScheddSubmitNoMetrics is BenchmarkScheddSubmit with the
// metrics registry and the tracer disabled: the uninstrumented baseline.
func BenchmarkScheddSubmitNoMetrics(b *testing.B) {
	benchSubmit(b, Config{Policy: sched.FIFO{}, MaxJobs: 1 << 30, MaxQueue: 1 << 30}, WithoutMetrics(), WithoutTracing())
}

func benchSubmit(b *testing.B, cfg Config, opts ...Option) {
	_, client, _ := startServer(b, cfg, 100, opts...)
	req := JobRequest{Origin: "CLEAN", LengthHours: 4, SlackHours: 48, Interruptible: true, Migratable: true}
	ctx := context.Background()
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
