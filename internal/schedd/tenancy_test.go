package schedd

// The tenancy proof layer at the service boundary: quota and rate 429s
// with their exact backpressure taxonomy against 503/413, per-tenant
// stats and metrics, weighted-fair service ordering end to end, and
// quota-window continuity across a recovery and a follower promotion.
// Tenant identity rides the fleet image, the journal and the
// replication stream, so fault_test.go runs tenant-tagged worlds
// through the crash and replication schedules too. The sched-level
// counterpart (internal/sched/tenancy_test.go) proves the deterministic
// scheduling properties; this file proves the service wiring around
// them.

import (
	"context"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"carbonshift/internal/httpx"
	"carbonshift/internal/sched"
	"carbonshift/internal/tenant"
)

// tenancyConfig is the tenant world most tests here run under: an
// interactive tenant, a default-batch one, a scavenger, a tightly
// quota-limited one, a rate-limited one, and the catch-all for names
// the config does not list.
func tenancyConfig(t testing.TB) *tenant.Config {
	t.Helper()
	cfg, err := tenant.NewConfig([]tenant.Spec{
		{Name: "web", Class: tenant.Interactive, Weight: 2},
		{Name: "batchy"},
		{Name: "spot", Class: tenant.Scavenger},
		{Name: "quotal", QuotaJobsPerHour: 3},
		{Name: "ratey", RatePerSec: 1, Burst: 2},
		{Name: "*"},
	})
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

// tjob is a one-hour CLEAN job for the given tenant with generous
// slack.
func tjob(tenantName string) JobRequest {
	return JobRequest{Origin: "CLEAN", Tenant: tenantName, LengthHours: 1, SlackHours: 48}
}

// wallClock is a settable token-bucket clock for WithGateClock.
type wallClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *wallClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *wallClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// wantStatus requires err to carry the HTTP status code and message
// fragment — the typed-client contract load generators branch on.
func wantStatus(t *testing.T, label string, err error, code int, substr string) {
	t.Helper()
	if err == nil {
		t.Fatalf("%s: no error, want status %d", label, code)
	}
	if got := httpx.StatusCodeOf(err); got != code {
		t.Fatalf("%s: status %d (%v), want %d", label, got, err, code)
	}
	if !strings.Contains(err.Error(), substr) {
		t.Fatalf("%s: error %q does not mention %q", label, err, substr)
	}
}

func tenantEntry(t *testing.T, stats StatsResponse, name string) TenantStatsEntry {
	t.Helper()
	for _, e := range stats.Tenants {
		if e.Name == name {
			return e
		}
	}
	t.Fatalf("no tenant %q in stats tenants block %+v", name, stats.Tenants)
	return TenantStatsEntry{}
}

// scrapeMetrics fetches /metrics from the client's endpoint.
func scrapeMetrics(t *testing.T, client *Client) string {
	t.Helper()
	resp, err := http.Get(client.Endpoint() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: status %d", resp.StatusCode)
	}
	return string(body)
}

// metricLine finds the series line for name carrying every given
// label pair (order-independent).
func metricLine(body, name string, labels ...string) (string, bool) {
	for _, line := range strings.Split(body, "\n") {
		if !strings.HasPrefix(line, name+"{") {
			continue
		}
		ok := true
		for _, l := range labels {
			if !strings.Contains(line, l) {
				ok = false
				break
			}
		}
		if ok {
			return line, true
		}
	}
	return "", false
}

func metricValue(t *testing.T, body, name string, labels ...string) float64 {
	t.Helper()
	line, ok := metricLine(body, name, labels...)
	if !ok {
		t.Fatalf("no %s series with labels %v in /metrics", name, labels)
	}
	fields := strings.Fields(line)
	v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
	if err != nil {
		t.Fatalf("parsing %q: %v", line, err)
	}
	return v
}

// TestTenantAdmissionQuota: the per-hour quota rejects the fourth job
// with 429, leaves other tenants untouched, rejects a mixed batch
// atomically, and opens a fresh window when the fleet hour moves.
func TestTenantAdmissionQuota(t *testing.T) {
	_, client, clock := startServer(t, Config{Policy: sched.FIFO{}, Tenants: tenancyConfig(t)}, 4)
	ctx := context.Background()

	for i := 0; i < 3; i++ {
		if _, err := client.Submit(ctx, tjob("quotal")); err != nil {
			t.Fatal(err)
		}
	}
	_, err := client.Submit(ctx, tjob("quotal"))
	wantStatus(t, "4th quotal job", err, http.StatusTooManyRequests, "quota exceeded")

	// Other tenants are unaffected by quotal's exhaustion.
	if _, err := client.Submit(ctx, tjob("web")); err != nil {
		t.Fatal(err)
	}

	// Batch atomicity: one over-quota tenant rejects the whole batch, so
	// the web job riding along is NOT admitted.
	_, err = client.Submit(ctx, tjob("web"), tjob("quotal"))
	wantStatus(t, "mixed batch with over-quota tenant", err, http.StatusTooManyRequests, "quota exceeded")

	// A new fleet hour opens a fresh quota window.
	clock.hour.Store(1)
	if _, err := client.Submit(ctx, tjob("quotal")); err != nil {
		t.Fatalf("quotal after hour advance: %v", err)
	}

	stats, err := client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if e := tenantEntry(t, stats, "quotal"); e.Submitted != 4 || e.Class != tenant.Batch || e.Weight != 1 {
		t.Fatalf("quotal entry = %+v", e)
	}
	if e := tenantEntry(t, stats, "web"); e.Submitted != 1 || e.Class != tenant.Interactive || e.Weight != 2 {
		t.Fatalf("web entry = %+v", e)
	}
	// The config echo carries the normalized registry (the follower's
	// cmd/schedd rebuilds its tenant world from exactly this).
	if _, err := tenant.NewConfig(stats.TenantConfig); err != nil {
		t.Fatalf("stats tenant_config does not round-trip: %v", err)
	}
	var quotalSpec *tenant.Spec
	for i := range stats.TenantConfig {
		if stats.TenantConfig[i].Name == "quotal" {
			quotalSpec = &stats.TenantConfig[i]
		}
	}
	if quotalSpec == nil || quotalSpec.Class != tenant.Batch || quotalSpec.Weight != 1 || quotalSpec.QuotaJobsPerHour != 3 {
		t.Fatalf("echoed quotal spec = %+v", quotalSpec)
	}
}

// TestTenantRateLimit: the wall-clock token bucket rejects past the
// burst with 429 and refills on the injected gate clock — which is
// independent of the replay clock, so the fleet hour never moves here.
func TestTenantRateLimit(t *testing.T) {
	wc := &wallClock{t: t0}
	_, client, _ := startServer(t, Config{Policy: sched.FIFO{}, Tenants: tenancyConfig(t)}, 4,
		WithGateClock(wc.now))
	ctx := context.Background()

	for i := 0; i < 2; i++ { // burst 2
		if _, err := client.Submit(ctx, tjob("ratey")); err != nil {
			t.Fatal(err)
		}
	}
	_, err := client.Submit(ctx, tjob("ratey"))
	wantStatus(t, "past-burst ratey job", err, http.StatusTooManyRequests, "rate limited")

	if _, err := client.Submit(ctx, tjob("web")); err != nil {
		t.Fatalf("web during ratey rejection: %v", err)
	}

	// 1.5 seconds at 1 token/s refills past one token.
	wc.advance(1500 * time.Millisecond)
	if _, err := client.Submit(ctx, tjob("ratey")); err != nil {
		t.Fatalf("ratey after refill: %v", err)
	}
	_, err = client.Submit(ctx, tjob("ratey"))
	wantStatus(t, "ratey again with 0.5 tokens", err, http.StatusTooManyRequests, "rate limited")

	body := scrapeMetrics(t, client)
	if v := metricValue(t, body, "schedd_tenant_rejected_total", `tenant="ratey"`, `reason="rate"`); v != 2 {
		t.Fatalf("schedd_tenant_rejected_total{ratey,rate} = %v, want 2", v)
	}
	if v := metricValue(t, body, "schedd_backpressure_total", `reason="rate"`); v != 2 {
		t.Fatalf("schedd_backpressure_total{rate} = %v, want 2", v)
	}
}

// TestBackpressureStatusTaxonomy pins the full rejection taxonomy —
// 429 quota, 429 rate, 503 capacity, 413 oversize — across both wire
// protocols and both typed clients, each carrying the status as a
// typed httpx.StatusError.
func TestBackpressureStatusTaxonomy(t *testing.T) {
	tcfg, err := tenant.NewConfig([]tenant.Spec{
		{Name: "q", QuotaJobsPerHour: 1},
		{Name: "r", RatePerSec: 0.001, Burst: 1},
		{Name: "*"},
	})
	if err != nil {
		t.Fatal(err)
	}
	_, single, _ := startServer(t, Config{Policy: sched.FIFO{}, MaxQueue: 4, Tenants: tcfg}, 1)
	fo, err := NewFailoverClient([]string{single.Endpoint()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	combos := []struct {
		name   string
		binary bool
		submit func(context.Context, ...JobRequest) (SubmitResponse, error)
	}{
		{"json/single", false, single.Submit},
		{"json/failover", false, fo.Submit},
		{"binary/single", true, single.SubmitBatch},
		{"binary/failover", true, fo.SubmitBatch},
	}

	// Quota: one admission consumes q's whole hourly window.
	if _, err := single.Submit(ctx, tjob("q")); err != nil {
		t.Fatal(err)
	}
	for _, c := range combos {
		_, err := c.submit(ctx, tjob("q"))
		wantStatus(t, c.name+" quota", err, http.StatusTooManyRequests, "quota exceeded")
	}

	// Rate: one admission drains r's single-token bucket; the refill at
	// 0.001/s is negligible for the test's lifetime.
	if _, err := single.Submit(ctx, tjob("r")); err != nil {
		t.Fatal(err)
	}
	for _, c := range combos {
		_, err := c.submit(ctx, tjob("r"))
		wantStatus(t, c.name+" rate", err, http.StatusTooManyRequests, "rate limited")
	}

	// Capacity: fill the queue to MaxQueue with an unlimited tenant —
	// 503 is the shared-capacity answer, distinct from the per-tenant
	// 429s above (and checked after them, since the bound check runs
	// before the gate).
	if _, err := single.Submit(ctx, tjob("cap"), tjob("cap")); err != nil {
		t.Fatal(err)
	}
	for _, c := range combos {
		_, err := c.submit(ctx, tjob("cap"))
		wantStatus(t, c.name+" capacity", err, http.StatusServiceUnavailable, "queue full")
	}

	// Oversize: a request body past httpx.MaxBody is 413 on both
	// protocols. The binary frame declares its payload length up front,
	// so the oversize origin is sized to keep the declared payload under
	// the limit while the whole frame (13-byte header included) exceeds
	// it — the read hits MaxBytesReader, not the frame validator.
	hugeJSON := JobRequest{Origin: strings.Repeat("x", httpx.MaxBody), LengthHours: 1}
	hugeBin := JobRequest{Origin: strings.Repeat("x", httpx.MaxBody-8), LengthHours: 1}
	for _, c := range combos {
		jr := hugeJSON
		if c.binary {
			jr = hugeBin
		}
		_, err := c.submit(ctx, jr)
		wantStatus(t, c.name+" oversize", err, http.StatusRequestEntityTooLarge, "exceeds")
	}

	body := scrapeMetrics(t, single)
	for _, reason := range []string{"quota", "rate", "queue_full", "oversize"} {
		if v := metricValue(t, body, "schedd_backpressure_total", `reason="`+reason+`"`); v < 4 {
			t.Fatalf("schedd_backpressure_total{%s} = %v, want >= 4", reason, v)
		}
	}
}

// TestRetryAfterHints pins the Retry-After contract: every 429 and 503
// carries a hint — in the Retry-After header and as the JSON body's
// retry_after field, which is what survives proxies and typed clients —
// sized to when a retry could actually succeed. 413 carries none: an
// oversized body never fits by waiting.
func TestRetryAfterHints(t *testing.T) {
	tcfg, err := tenant.NewConfig([]tenant.Spec{
		{Name: "q", QuotaJobsPerHour: 1},
		{Name: "r", RatePerSec: 0.001, Burst: 1},
		{Name: "*"},
	})
	if err != nil {
		t.Fatal(err)
	}
	wc := &wallClock{t: t0}
	_, client, _ := startServer(t, Config{Policy: sched.FIFO{}, MaxQueue: 4, Tenants: tcfg}, 1,
		WithGateClock(wc.now))
	ctx := context.Background()

	// Rate: r's bucket holds one token; refilling the next one at
	// 0.001/s takes exactly 1000 seconds. Both wire protocols carry the
	// same hint.
	if _, err := client.Submit(ctx, tjob("r")); err != nil {
		t.Fatal(err)
	}
	_, err = client.Submit(ctx, tjob("r"))
	wantStatus(t, "rate rejection", err, http.StatusTooManyRequests, "rate limited")
	if got := httpx.RetryAfterOf(err); got != 1000 {
		t.Fatalf("rate Retry-After = %d, want the 1000s token deficit", got)
	}
	_, err = client.SubmitBatch(ctx, tjob("r"))
	wantStatus(t, "binary rate rejection", err, http.StatusTooManyRequests, "rate limited")
	if got := httpx.RetryAfterOf(err); got != 1000 {
		t.Fatalf("binary rate Retry-After = %d, want 1000", got)
	}

	// Quota: q's window reopens with the next fleet hour. The replay
	// clock sits exactly on an hour boundary and Speedup defaults to 1,
	// so the hint is the full hour in wall seconds.
	if _, err := client.Submit(ctx, tjob("q")); err != nil {
		t.Fatal(err)
	}
	_, err = client.Submit(ctx, tjob("q"))
	wantStatus(t, "quota rejection", err, http.StatusTooManyRequests, "quota exceeded")
	if got := httpx.RetryAfterOf(err); got != 3600 {
		t.Fatalf("quota Retry-After = %d, want 3600 (remainder of the fleet hour)", got)
	}
	// The hint also rides the standard HTTP header for generic clients.
	resp, err := http.Post(client.Endpoint()+"/v1/jobs", "application/json",
		strings.NewReader(`{"origin":"CLEAN","tenant":"q","length_hours":1,"slack_hours":48}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") != "3600" {
		t.Fatalf("raw quota rejection: status %d, Retry-After header %q, want 429 / 3600",
			resp.StatusCode, resp.Header.Get("Retry-After"))
	}

	// Capacity: the queue drains as soon as the fleet steps, so the
	// 503 hint is the minimum — retry in a second.
	if _, err := client.Submit(ctx, tjob("cap"), tjob("cap")); err != nil {
		t.Fatal(err)
	}
	_, err = client.Submit(ctx, tjob("cap"))
	wantStatus(t, "capacity rejection", err, http.StatusServiceUnavailable, "queue full")
	if got := httpx.RetryAfterOf(err); got != 1 {
		t.Fatalf("queue-full Retry-After = %d, want 1", got)
	}

	// Oversize: no hint — waiting cannot shrink the request.
	_, err = client.Submit(ctx, JobRequest{Origin: strings.Repeat("x", httpx.MaxBody), LengthHours: 1})
	wantStatus(t, "oversize rejection", err, http.StatusRequestEntityTooLarge, "exceeds")
	if got := httpx.RetryAfterOf(err); got != 0 {
		t.Fatalf("413 Retry-After = %d, want none", got)
	}

	// Speedup scales the quota hint: at 3600x replay, the hour's
	// remainder is one wall second.
	_, fast, _ := startServer(t, Config{Policy: sched.FIFO{}, Tenants: tcfg, Speedup: 3600}, 1)
	if _, err := fast.Submit(ctx, tjob("q")); err != nil {
		t.Fatal(err)
	}
	_, err = fast.Submit(ctx, tjob("q"))
	wantStatus(t, "sped-up quota rejection", err, http.StatusTooManyRequests, "quota exceeded")
	if got := httpx.RetryAfterOf(err); got != 1 {
		t.Fatalf("quota Retry-After at 3600x = %d, want 1", got)
	}
}

// TestTenantMetricsExposition: /metrics carries the per-tenant
// families, aggregates unlisted tenants under the bounded "other"
// label, and attributes migration carbon savings to the owning tenant.
func TestTenantMetricsExposition(t *testing.T) {
	_, client, clock := startServer(t, Config{Policy: sched.GreenestFirst{}, Tenants: tenancyConfig(t)}, 8)
	ctx := context.Background()

	// web's migratable DIRTY job is routed to CLEAN by GreenestFirst, so
	// its carbon savings land on the web tenant.
	if _, err := client.Submit(ctx, JobRequest{
		Origin: "DIRTY", Tenant: "web", LengthHours: 2, SlackHours: 12, Migratable: true,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Submit(ctx, tjob("batchy")); err != nil {
		t.Fatal(err)
	}
	// Two unlisted tenants must SUM into "other", not overwrite it.
	if _, err := client.Submit(ctx, tjob("mystery"), tjob("enigma")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := client.Submit(ctx, tjob("quotal")); err != nil {
			t.Fatal(err)
		}
	}
	_, err := client.Submit(ctx, tjob("quotal"))
	wantStatus(t, "over-quota quotal", err, http.StatusTooManyRequests, "quota exceeded")

	clock.hour.Store(6)
	body := scrapeMetrics(t, client)

	if v := metricValue(t, body, "schedd_tenant_jobs_submitted", `tenant="web"`); v != 1 {
		t.Fatalf(`schedd_tenant_jobs_submitted{web} = %v, want 1`, v)
	}
	if v := metricValue(t, body, "schedd_tenant_jobs_submitted", `tenant="other"`); v != 2 {
		t.Fatalf(`schedd_tenant_jobs_submitted{other} = %v, want 2 (mystery+enigma)`, v)
	}
	if v := metricValue(t, body, "schedd_tenant_jobs_completed", `tenant="quotal"`); v != 3 {
		t.Fatalf(`schedd_tenant_jobs_completed{quotal} = %v, want 3`, v)
	}
	if v := metricValue(t, body, "schedd_tenant_rejected_total", `tenant="quotal"`, `reason="quota"`); v != 1 {
		t.Fatalf(`schedd_tenant_rejected_total{quotal,quota} = %v, want 1`, v)
	}
	if v := metricValue(t, body, "schedd_tenant_carbon_saved_grams", `tenant="web"`); v <= 0 {
		t.Fatalf(`schedd_tenant_carbon_saved_grams{web} = %v, want > 0`, v)
	}
	if v := metricValue(t, body, "schedd_tenant_slot_hours", `tenant="web"`); v != 2 {
		t.Fatalf(`schedd_tenant_slot_hours{web} = %v, want 2`, v)
	}
}

// TestTenantClassServiceOrdering: with one usable slot and 200:1
// effective weights, every interactive job finishes before any
// scavenger job starts — and the scavenger still drains afterwards
// (starvation-freedom end to end).
func TestTenantClassServiceOrdering(t *testing.T) {
	_, client, clock := startServer(t, Config{Policy: sched.FIFO{}, Tenants: tenancyConfig(t)}, 1)
	ctx := context.Background()

	var batch []JobRequest
	for i := 0; i < 6; i++ {
		batch = append(batch, JobRequest{Origin: "CLEAN", Tenant: "spot", LengthHours: 1, SlackHours: 200})
	}
	for i := 0; i < 6; i++ {
		batch = append(batch, JobRequest{Origin: "CLEAN", Tenant: "web", LengthHours: 1, SlackHours: 200})
	}
	// Scavenger jobs are submitted FIRST: only the fair queue, never
	// submission order, can explain web finishing before spot.
	if _, err := client.Submit(ctx, batch...); err != nil {
		t.Fatal(err)
	}

	clock.hour.Store(6)
	stats, err := client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if web, spot := tenantEntry(t, stats, "web"), tenantEntry(t, stats, "spot"); web.Completed != 6 || spot.Completed != 0 {
		t.Fatalf("after 6 slot-hours: web completed %d (want 6), spot completed %d (want 0)",
			web.Completed, spot.Completed)
	}
	clock.hour.Store(12)
	stats, err = client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if spot := tenantEntry(t, stats, "spot"); spot.Completed != 6 || spot.Missed != 0 {
		t.Fatalf("scavenger starved: %+v", spot)
	}
}

// TestTenantQuotaRecoveryContinuity: a rebooted server rebuilds the
// quota windows from the recovered fleet's arrivals, so a tenant that
// exhausted its hour before the shutdown is still rejected right after
// recovery — no free window from restarting the process.
func TestTenantQuotaRecoveryContinuity(t *testing.T) {
	c := newCluster(t, world{policy: sched.FIFO{}, tenants: true, horizon: 48, slots: 4})
	for i := 0; i < 3; i++ {
		if _, err := c.primary.client.Submit(c.ctx, tjob("quotal")); err != nil {
			t.Fatal(err)
		}
	}
	_, err := c.primary.client.Submit(c.ctx, tjob("quotal"))
	wantStatus(t, "pre-shutdown over-quota", err, http.StatusTooManyRequests, "quota exceeded")

	c.restart()
	// Same hour, rebuilt window: still exhausted.
	_, err = c.primary.client.Submit(c.ctx, tjob("quotal"))
	wantStatus(t, "post-recovery over-quota", err, http.StatusTooManyRequests, "quota exceeded")
	// Other tenants were never blocked.
	if _, err := c.primary.client.Submit(c.ctx, tjob("web")); err != nil {
		t.Fatal(err)
	}
	// The next hour opens a fresh window as usual.
	c.clock.hour.Store(1)
	if _, err := c.primary.client.Submit(c.ctx, tjob("quotal")); err != nil {
		t.Fatalf("quotal after hour advance: %v", err)
	}
}

// TestTenantPromotionQuotaContinuity: a promoted follower rebuilds the
// quota windows from the replicated arrivals — a failover must not
// grant every tenant a fresh hour.
func TestTenantPromotionQuotaContinuity(t *testing.T) {
	c := newCluster(t, world{policy: sched.FIFO{}, tenants: true, horizon: 48, slots: 4})
	f := c.startFollower(FollowerConfig{}, true)
	for i := 0; i < 3; i++ {
		if _, err := c.primary.client.Submit(c.ctx, tjob("quotal")); err != nil {
			t.Fatal(err)
		}
	}
	c.promote(0)
	// Same hour on the new primary: quotal's window is already spent.
	_, err := f.client.Submit(c.ctx, tjob("quotal"))
	wantStatus(t, "post-promotion over-quota", err, http.StatusTooManyRequests, "quota exceeded")
	if _, err := f.client.Submit(c.ctx, tjob("web")); err != nil {
		t.Fatalf("web on promoted primary: %v", err)
	}
	c.clock.hour.Store(1)
	if _, err := f.client.Submit(c.ctx, tjob("quotal")); err != nil {
		t.Fatalf("quotal on promoted primary after hour advance: %v", err)
	}
}

// TestTenantIsolationChaos: concurrent submitters for four tenants —
// one of them abusive, over both wire protocols — leave the
// well-behaved tenants completely untouched: every one of their
// submissions is admitted, while the abusive tenant gets exactly its
// quota and nothing more. Run under -race in CI, this also exercises
// the gate/fleet locking.
func TestTenantIsolationChaos(t *testing.T) {
	_, client, clock := startServer(t, Config{Policy: sched.FIFO{}, Tenants: tenancyConfig(t)}, 200)
	ctx := context.Background()

	const workersPerTenant, jobsPerWorker = 3, 10
	type outcome struct {
		tenant string
		err    error
	}
	results := make(chan outcome, 4*workersPerTenant*jobsPerWorker)
	var wg sync.WaitGroup
	for _, name := range []string{"web", "batchy", "spot", "quotal"} {
		for w := 0; w < workersPerTenant; w++ {
			wg.Add(1)
			go func(name string, w int) {
				defer wg.Done()
				for i := 0; i < jobsPerWorker; i++ {
					submit := client.Submit
					if (w+i)%2 == 1 {
						submit = client.SubmitBatch
					}
					_, err := submit(ctx, tjob(name))
					results <- outcome{name, err}
				}
			}(name, w)
		}
	}
	wg.Wait()
	close(results)

	admitted := map[string]int{}
	rejected := map[string]int{}
	for r := range results {
		if r.err == nil {
			admitted[r.tenant]++
			continue
		}
		if r.tenant != "quotal" {
			t.Fatalf("well-behaved tenant %q rejected: %v", r.tenant, r.err)
		}
		wantStatus(t, "abusive tenant rejection", r.err, http.StatusTooManyRequests, "quota exceeded")
		rejected[r.tenant]++
	}
	total := workersPerTenant * jobsPerWorker
	for _, name := range []string{"web", "batchy", "spot"} {
		if admitted[name] != total {
			t.Fatalf("tenant %q: %d/%d admitted", name, admitted[name], total)
		}
	}
	if admitted["quotal"] != 3 || rejected["quotal"] != total-3 {
		t.Fatalf("abusive tenant: %d admitted, %d rejected; want exactly the quota of 3 admitted",
			admitted["quotal"], rejected["quotal"])
	}

	clock.hour.Store(5)
	stats, err := client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"web", "batchy", "spot"} {
		if e := tenantEntry(t, stats, name); e.Submitted != total || e.Completed != total {
			t.Fatalf("tenant %q entry = %+v", name, e)
		}
	}
	if e := tenantEntry(t, stats, "quotal"); e.Submitted != 3 {
		t.Fatalf("quotal entry = %+v", e)
	}
}
