package sched

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"carbonshift/internal/tenant"
)

// tenancyConfig is the mixed-class world the invariant sweeps run
// under: two interactive tenants of different weights, a batch tenant,
// and a scavenger.
func tenancyConfig(t testing.TB) *tenant.Config {
	t.Helper()
	cfg, err := tenant.NewConfig([]tenant.Spec{
		{Name: "web", Class: tenant.Interactive, Weight: 2},
		{Name: "api", Class: tenant.Interactive},
		{Name: "etl", Class: tenant.Batch},
		{Name: "spot", Class: tenant.Scavenger},
	})
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

// genTenantJobs builds a deterministic random workload with tenant
// tags drawn from the given names ("" entries mean the default
// tenant).
func genTenantJobs(rng *rand.Rand, n, span int, origins, tenants []string) []Job {
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = Job{
			ID:            i + 1,
			Origin:        origins[rng.Intn(len(origins))],
			Tenant:        tenants[rng.Intn(len(tenants))],
			Arrival:       rng.Intn(span),
			Length:        1 + rng.Intn(6),
			Slack:         rng.Intn(48),
			Interruptible: rng.Intn(2) == 0,
			Migratable:    rng.Intn(2) == 0,
		}
	}
	return jobs
}

// TestTenancyInvariants is the tenancy proof layer's core sweep:
// across random seeds and policies, a tenant-tagged workload under
// weighted-fair dequeue must behave identically in the fleet and the
// naive reference model — every field of every Placed the two OnPlace hooks
// report (hour, job, region, origin, tenant, both intensities, and the
// phase that placed it), the aggregate Result and per-tenant accounting
// — and a fleet restored from a mid-run snapshot must finish with the
// uninterrupted run's image and placements.
func TestTenancyInvariants(t *testing.T) {
	const horizon = 24 * 6
	set, cl, origins := mkWideSet(t, horizon, 6)
	tenants := []string{"web", "api", "etl", "spot", ""}

	for seed := int64(1); seed <= 3; seed++ {
		jobs := genTenantJobs(rand.New(rand.NewSource(seed)), 240, horizon-60, origins, tenants)
		for _, pol := range allPolicies() {
			t.Run(fmt.Sprintf("seed%d/%s", seed, pol.Name()), func(t *testing.T) {
				type run struct {
					placements string
					result     Result
					perTenant  map[string]TenantStat
				}
				var serial, fleet run

				record := func(log *strings.Builder) func(Placed) {
					return func(p Placed) { fmt.Fprintf(log, "%+v\n", p) }
				}

				{
					f, err := newRefFleet(set, cl, pol, horizon)
					if err != nil {
						t.Fatal(err)
					}
					f.SetFairQueue(tenant.NewFairQueue(tenancyConfig(t)))
					var log strings.Builder
					f.OnPlace = record(&log)
					if err := f.Submit(jobs...); err != nil {
						t.Fatal(err)
					}
					driveFleet(t, f)
					serial = run{log.String(), f.Snapshot(), f.TenantStats()}
				}
				{
					f, err := NewFleet(set, cl, pol, horizon)
					if err != nil {
						t.Fatal(err)
					}
					f.SetFairQueue(tenant.NewFairQueue(tenancyConfig(t)))
					var log strings.Builder
					f.OnPlace = record(&log)
					if err := f.Submit(jobs...); err != nil {
						t.Fatal(err)
					}
					driveFleet(t, f)
					fleet = run{log.String(), f.Snapshot(), f.TenantStats()}
				}

				if fleet.placements != serial.placements {
					t.Fatal("placements diverge from the reference model")
				}
				if !reflect.DeepEqual(fleet.result, serial.result) {
					t.Fatal("Result differs from the reference model")
				}
				if len(fleet.perTenant) != len(serial.perTenant) {
					t.Fatal("tenant stats differ")
				}
				for name, ts := range serial.perTenant {
					if fleet.perTenant[name] != ts {
						t.Fatalf("tenant %s stats %+v != serial %+v", name, fleet.perTenant[name], ts)
					}
				}
			})
		}

		// Mid-run snapshot hop under tenancy: a fleet restored from the
		// image must finish the run byte-identically, reporting the
		// uninterrupted run's placements from the hop on.
		t.Run(fmt.Sprintf("seed%d/restore-hop", seed), func(t *testing.T) {
			pol := SpatioTemporal{Percentile: 40, Window: 48}
			mk := func(log *[]Placed) *Fleet {
				f, err := NewFleet(set, cl, pol, horizon)
				if err != nil {
					t.Fatal(err)
				}
				f.SetFairQueue(tenant.NewFairQueue(tenancyConfig(t)))
				f.OnPlace = func(p Placed) { *log = append(*log, p) }
				return f
			}
			var refLog, hopLog []Placed
			ref := mk(&refLog)
			if err := ref.Submit(jobs...); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < horizon/2; i++ {
				if err := ref.Step(); err != nil {
					t.Fatal(err)
				}
			}
			mid, err := ref.Marshal()
			if err != nil {
				t.Fatal(err)
			}
			hop := mk(&hopLog)
			if err := hop.Unmarshal(mid); err != nil {
				t.Fatal(err)
			}
			before := len(refLog)
			driveFleet(t, ref)
			driveFleet(t, hop)
			a, _ := ref.Marshal()
			b, _ := hop.Marshal()
			if !bytes.Equal(a, b) {
				t.Fatal("restored fleet's final image differs from the uninterrupted run")
			}
			if len(hopLog) == 0 || !slices.Equal(hopLog, refLog[before:]) {
				t.Fatalf("restored fleet placed %d job-hours after the hop, the uninterrupted run %d, or they differ",
					len(hopLog), len(refLog)-before)
			}
		})
	}
}

// TestTenancyScavengerNotStarved: under saturating interactive load
// with scarce slots, a scavenger tenant whose jobs are never
// deadline-forced (slack beyond the horizon) still executes — service
// arrives through the weighted-fair dequeue alone, at roughly its
// weight share.
func TestTenancyScavengerNotStarved(t *testing.T) {
	const horizon = 24 * 10
	set := mkSet(t, horizon)
	cl := []Cluster{{Region: "CLEAN", Slots: 2}, {Region: "DIRTY", Slots: 2}}

	cfg, err := tenant.NewConfig([]tenant.Spec{
		{Name: "web", Class: tenant.Interactive},
		{Name: "spot", Class: tenant.Scavenger},
	})
	if err != nil {
		t.Fatal(err)
	}

	var jobs []Job
	id := 0
	// Interactive flood: far more work than the 4 slots can absorb,
	// with slack so generous nothing is deadline-forced.
	for i := 0; i < 40; i++ {
		id++
		jobs = append(jobs, Job{
			ID: id, Origin: "CLEAN", Tenant: "web", Arrival: 0,
			Length: horizon / 2, Slack: 10 * horizon,
			Interruptible: true, Migratable: true,
		})
	}
	// Scavenger backlog, same never-forced shape.
	for i := 0; i < 10; i++ {
		id++
		jobs = append(jobs, Job{
			ID: id, Origin: "DIRTY", Tenant: "spot", Arrival: 0,
			Length: horizon / 2, Slack: 10 * horizon,
			Interruptible: true, Migratable: true,
		})
	}

	f, err := NewFleet(set, cl, FIFO{}, horizon)
	if err != nil {
		t.Fatal(err)
	}
	f.SetFairQueue(tenant.NewFairQueue(cfg))
	if err := f.Submit(jobs...); err != nil {
		t.Fatal(err)
	}
	driveFleet(t, f)
	ts := f.TenantStats()
	spot, web := ts["spot"], ts["web"]
	if spot.SlotHours == 0 {
		t.Fatal("scavenger starved under interactive saturation")
	}
	total := spot.SlotHours + web.SlotHours
	// Weight ratio 100:1 → spot's fair share is ~1%; allow a wide
	// band but insist it is bounded on both sides.
	if spot.SlotHours < total/500 || spot.SlotHours > total/10 {
		t.Fatalf("scavenger share %d of %d slot-hours is far from its weight share", spot.SlotHours, total)
	}
}

// TestTenancyQuotaNeverExceeded drives the admission gate against a
// live fleet through SubmitNowChecked — the race-free check
// the service layer uses — with randomized contention, then asserts
// from the fleet's own arrival records that no tenant ever exceeded
// its quota in any hour.
func TestTenancyQuotaNeverExceeded(t *testing.T) {
	const horizon = 48
	set := mkSet(t, horizon)
	quotas := map[string]int{"a": 3, "b": 7}
	cfg, err := tenant.NewConfig([]tenant.Spec{
		{Name: "a", QuotaJobsPerHour: quotas["a"]},
		{Name: "b", QuotaJobsPerHour: quotas["b"]},
		{Name: "c"},
	})
	if err != nil {
		t.Fatal(err)
	}

	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		f, err := NewFleet(set, clusters(4), FIFO{}, horizon)
		if err != nil {
			t.Fatal(err)
		}
		f.SetFairQueue(tenant.NewFairQueue(cfg))
		gate := tenant.NewGate(cfg, nil)
		names := []string{"a", "b", "c"}
		id := 0
		for !f.Done() {
			for try := 0; try < 12; try++ {
				name := names[rng.Intn(len(names))]
				n := 1 + rng.Intn(3)
				batch := make([]Job, n)
				for i := range batch {
					id++
					batch[i] = Job{ID: id, Origin: "CLEAN", Tenant: name, Length: 1, Slack: 4}
				}
				_, err := f.SubmitNowChecked(func(hour int) error {
					return gate.Check(name, n, hour)
				}, batch...)
				if err != nil {
					continue
				}
				gate.Commit(name, n, f.Hour())
				arr := f.TenantArrivals(f.Hour())
				for tn, q := range quotas {
					if arr[tn] > q {
						t.Fatalf("seed %d hour %d: tenant %s admitted %d > quota %d", seed, f.Hour(), tn, arr[tn], q)
					}
				}
			}
			if err := f.Step(); err != nil {
				t.Fatal(err)
			}
		}
	}
}
