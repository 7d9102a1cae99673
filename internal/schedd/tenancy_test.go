package schedd

// The tenancy proof layer at the service boundary: per-tenant stats and
// metrics, weighted-fair service ordering end to end, and quota-window
// continuity across a recovery and a follower promotion; the quota and
// rate 429s and their taxonomy against 503/413 are rows of the
// admission table (admission_test.go).
// Tenant identity rides the fleet image, the journal and the
// replication stream, so fault_test.go runs tenant-tagged worlds
// through the crash and replication schedules too. The sched-level
// counterpart (internal/sched/tenancy_test.go) proves the deterministic
// scheduling properties; this file proves the service wiring around
// them.

import (
	"testing"

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

// TestTenantMetricsExposition: /metrics carries the per-tenant
// families, aggregates unlisted tenants under the bounded "other"
// label, and attributes migration carbon savings to the owning tenant:
// web's migratable DIRTY job runs on CLEAN under greenest-first, saving
// 200-20 g in each of its two hours.
func TestTenantMetricsExposition(t *testing.T) {
	quotal := tjob("quotal")
	admit(t, world{policy: sched.GreenestFirst{}, slots: 8, tenants: true},
		send(ok, JobRequest{Origin: "DIRTY", Tenant: "web", LengthHours: 2, SlackHours: 12, Migratable: true}),
		send(ok, tjob("batchy")),
		send(ok, tjob("mystery"), tjob("enigma")), // unlisted: they must sum into "other"
		send(ok, quotal), send(ok, quotal), send(ok, quotal),
		send(refused(429, "quota exceeded", 3600), quotal),
		hour(6),
		series(map[string]float64{
			`schedd_tenant_jobs_submitted{tenant="web"}`:                   1,
			`schedd_tenant_jobs_submitted{tenant="other"}`:                 2,
			`schedd_tenant_jobs_completed{tenant="quotal"}`:                3,
			`schedd_tenant_rejected_total{tenant="quotal",reason="quota"}`: 4,
			`schedd_tenant_slot_hours{tenant="web"}`:                       2,
			`schedd_tenant_carbon_saved_grams{tenant="web"}`:               2 * 180,
		}))
}

// TestTenantClassServiceOrdering: with one usable slot and 200:1
// effective weights, every interactive job finishes before any
// scavenger job starts — and the scavenger still drains afterwards
// (starvation-freedom end to end).
func TestTenantClassServiceOrdering(t *testing.T) {
	var batch []JobRequest
	for _, name := range []string{"spot", "web"} {
		for range 6 {
			batch = append(batch, JobRequest{Origin: "CLEAN", Tenant: name, LengthHours: 1, SlackHours: 200})
		}
	}
	completed := func(want map[string]int) step {
		return act(func(c *cluster) {
			st := c.primary.srv.stats()
			for name, n := range want {
				if e := tenantEntry(t, st, name); e.Completed != n || e.Missed != 0 {
					t.Fatalf("hour %d: %s = %+v, want %d completed", c.hour, name, e, n)
				}
			}
		})
	}
	// Scavenger jobs are submitted FIRST: only the fair queue, never
	// submission order, can explain web finishing before spot.
	admit(t, world{policy: sched.FIFO{}, slots: 1, tenants: true},
		send(ok, batch...),
		hour(6), completed(map[string]int{"web": 6, "spot": 0}),
		hour(12), completed(map[string]int{"spot": 6}))
}

// TestTenantQuotaRecoveryContinuity: a rebooted server rebuilds the
// quota windows from the recovered fleet's arrivals, so a tenant that
// exhausted its hour before the shutdown is still rejected right after
// recovery — no free window from restarting the process — while other
// tenants were never blocked and the next hour opens a fresh window.
func TestTenantQuotaRecoveryContinuity(t *testing.T) {
	quotal, quota := tjob("quotal"), refused(429, "quota exceeded", 3600)
	admit(t, world{policy: sched.FIFO{}, tenants: true, horizon: 48, slots: 4},
		send(ok, quotal), send(ok, quotal), send(ok, quotal), send(quota, quotal),
		act((*cluster).restart),
		send(quota, quotal), send(ok, tjob("web")),
		hour(1), send(ok, quotal))
}

// TestTenantPromotionQuotaContinuity: a promoted follower rebuilds the
// quota windows from the replicated arrivals — a failover must not
// grant every tenant a fresh hour.
func TestTenantPromotionQuotaContinuity(t *testing.T) {
	quotal, quota := tjob("quotal"), refused(429, "quota exceeded", 3600)
	admit(t, world{policy: sched.FIFO{}, tenants: true, horizon: 48, slots: 4},
		act(func(c *cluster) { c.startFollower(FollowerConfig{}, true) }),
		send(ok, quotal), send(ok, quotal), send(ok, quotal),
		act(func(c *cluster) { c.promote(0) }),
		send(quota, quotal), send(ok, tjob("web")),
		hour(1), send(ok, quotal))
}
