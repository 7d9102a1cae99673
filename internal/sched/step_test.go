package sched

import (
	"runtime"
	"testing"

	"carbonshift/internal/regions"
	"carbonshift/internal/rng"
	"carbonshift/internal/simgrid"
	"carbonshift/internal/tenant"
	"carbonshift/internal/workload"
)

// TestStepRetainedBytesPerEligible pins what Step keeps per eligible job
// between hours, with tenancy on: the candidate pool, filtered and
// permuted in place into the eligible list (4 bytes a job), and the fair
// queue's grouping scratch (4 more); the policy reads each job from its
// active entry and record, so no view of it is stored. With append's
// slack on both, up to 10 bytes. 7.8 when this was written; 52.4 while
// the Tick held a 32-byte view of every eligible job and the fair order
// an []int permutation beside its scratch.
func TestStepRetainedBytesPerEligible(t *testing.T) {
	const n, ceiling = 20_000, 12
	set, cl, origins := mkWideSet(t, 48, 4)
	f, err := NewFleet(set, cl, idlePolicy{}, 48)
	if err != nil {
		t.Fatal(err)
	}
	f.SetFairQueue(tenant.NewFairQueue(goldenTenantConfig(t)))
	jobs := residentJobs(n, origins)
	for i := range jobs {
		jobs[i].Slack = 40 // no job is forced in the hours stepped
	}
	if err := f.Submit(jobs...); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for range 3 {
		if err := f.Step(); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if st := f.Stats(); st.Running != 0 || st.Queued != n {
		t.Fatalf("%d jobs running and %d queued, want every one of %d waiting", st.Running, st.Queued, n)
	}
	perJob := float64(after.HeapInuse-before.HeapInuse) / n
	t.Logf("%.1f bytes of heap in use per eligible job", perJob)
	if perJob > ceiling {
		t.Errorf("Step keeps %.1f bytes per eligible job, want at most %d", perJob, ceiling)
	}
	runtime.KeepAlive(f)
}

// BenchmarkFleetStep steps one partition shaped like the benchmark's
// replay_resident workload through its horizon: every second catalog
// region over 576 hours, 400 slots each, SpatioTemporal{40, 48}, four
// tenants behind a fair queue, and 80 000 jobs arriving over the first
// 336 hours (Azure lengths capped at 24, slack 96, 80 % interruptible,
// 50 % migratable), each hour's arrivals submitted before its Step. The
// resident backlog is what the policy and the fair order walk every
// hour. One op is one fleet's whole run.
func BenchmarkFleetStep(b *testing.B) {
	const horizon, arrivals, n = 576, 336, 80_000
	var regs []regions.Region
	for i, r := range regions.All() {
		if i%2 == 0 {
			regs = append(regs, r)
		}
	}
	set, err := simgrid.GenerateCached(b.Context(), regs, simgrid.Config{Seed: 1, Hours: horizon}, 0)
	if err != nil {
		b.Fatal(err)
	}
	var cl []Cluster
	for _, code := range set.Regions() {
		cl = append(cl, Cluster{Region: code, Slots: 400})
	}
	jobs, err := GenerateJobs(WorkloadSpec{
		Jobs: n, ArrivalSpan: arrivals, Dist: workload.DistAzure, SlackHours: 96,
		InterruptibleFrac: 0.8, MigratableFrac: 0.5, Origins: set.Regions(), Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	names, shares := []string{"web", "etl", "ml", "adhoc"}, []float64{0.50, 0.25, 0.15, 0.10}
	src := rng.New(2)
	for i := range jobs {
		jobs[i].Length = min(jobs[i].Length, 24)
		jobs[i].Tenant = names[src.Pick(shares)]
	}
	b.ReportAllocs()
	for b.Loop() {
		f, err := NewFleet(set, cl, SpatioTemporal{Percentile: 40, Window: 48}, horizon)
		if err != nil {
			b.Fatal(err)
		}
		f.SetFairQueue(tenant.NewFairQueue(placementGoldenTenants(b)))
		next := 0
		for h := range horizon {
			end := next
			for end < len(jobs) && jobs[end].Arrival == h {
				end++
			}
			if err := f.Submit(jobs[next:end]...); err != nil {
				b.Fatal(err)
			}
			next = end
			if err := f.Step(); err != nil {
				b.Fatal(err)
			}
		}
	}
}
