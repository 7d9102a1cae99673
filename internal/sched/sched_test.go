package sched

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"testing"
	"time"

	"carbonshift/internal/trace"
	"carbonshift/internal/workload"
)

var t0 = time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)

// mkSet builds a two-region world: CLEAN is flat and green, DIRTY has a
// strong diurnal cycle (cheap hours 0-11, expensive 12-23 of each day).
func mkSet(t testing.TB, hours int) *trace.Set {
	t.Helper()
	clean := make([]float64, hours)
	dirty := make([]float64, hours)
	for h := 0; h < hours; h++ {
		clean[h] = 20
		if h%24 < 12 {
			dirty[h] = 200
		} else {
			dirty[h] = 800
		}
	}
	s, err := trace.NewSet([]*trace.Trace{
		trace.New("CLEAN", t0, clean),
		trace.New("DIRTY", t0, dirty),
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func clusters(slots int) []Cluster {
	return []Cluster{{Region: "CLEAN", Slots: slots}, {Region: "DIRTY", Slots: slots}}
}

func TestFIFORunsEverythingImmediately(t *testing.T) {
	set := mkSet(t, 100)
	jobs := []Job{
		{ID: 1, Origin: "DIRTY", Arrival: 0, Length: 4, Slack: 48},
		{ID: 2, Origin: "CLEAN", Arrival: 2, Length: 3, Slack: 48},
	}
	res, err := Run(set, clusters(4), jobs, FIFO{}, 100)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 2 || res.Missed != 0 {
		t.Fatalf("completed %d missed %d", res.Completed, res.Missed)
	}
	if res.Outcomes[0].CompletedAt != 4 {
		t.Fatalf("job 1 finished at %d, want 4 (no deferral under FIFO)", res.Outcomes[0].CompletedAt)
	}
	// Job 1 runs hours 0-3 in DIRTY at 200 each.
	if math.Abs(res.Outcomes[0].Emissions-800) > 1e-9 {
		t.Fatalf("job 1 emissions = %v", res.Outcomes[0].Emissions)
	}
	if res.MeanWaitHours != 0 {
		t.Fatalf("mean wait = %v", res.MeanWaitHours)
	}
}

func TestCarbonGateDefersDirtyHours(t *testing.T) {
	set := mkSet(t, 24*20)
	// Job arrives at hour 36 (noon, dirty period) with plenty of slack.
	jobs := []Job{{ID: 1, Origin: "DIRTY", Arrival: 36, Length: 6, Slack: 72, Interruptible: true}}
	gate := CarbonGate{Percentile: 40, Window: 24}
	res, err := Run(set, clusters(1), jobs, gate, 24*20)
	if err != nil {
		t.Fatal(err)
	}
	fifoRes, err := Run(set, clusters(1), jobs, FIFO{}, 24*20)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 1 || res.Missed != 0 {
		t.Fatalf("gate: completed %d missed %d", res.Completed, res.Missed)
	}
	if res.TotalEmissions >= fifoRes.TotalEmissions {
		t.Fatalf("gate emissions %v not below FIFO %v", res.TotalEmissions, fifoRes.TotalEmissions)
	}
	// The gated job should have run entirely in cheap hours: 6 * 200.
	if math.Abs(res.TotalEmissions-1200) > 1e-9 {
		t.Fatalf("gate emissions = %v, want 1200", res.TotalEmissions)
	}
}

func TestGreenestFirstMigrates(t *testing.T) {
	set := mkSet(t, 100)
	jobs := []Job{{ID: 1, Origin: "DIRTY", Arrival: 0, Length: 5, Slack: 24, Migratable: true}}
	res, err := Run(set, clusters(2), jobs, GreenestFirst{}, 100)
	if err != nil {
		t.Fatal(err)
	}
	// Runs immediately in CLEAN at 20/h.
	if math.Abs(res.TotalEmissions-100) > 1e-9 {
		t.Fatalf("emissions = %v, want 100", res.TotalEmissions)
	}
	if res.Outcomes[0].Migrations != 0 {
		// First placement is not a migration.
		t.Fatalf("migrations = %d", res.Outcomes[0].Migrations)
	}
}

func TestPinnedJobStaysHome(t *testing.T) {
	set := mkSet(t, 100)
	jobs := []Job{{ID: 1, Origin: "DIRTY", Arrival: 0, Length: 2, Slack: 0, Migratable: false}}
	res, err := Run(set, clusters(1), jobs, GreenestFirst{}, 100)
	if err != nil {
		t.Fatal(err)
	}
	// Zero slack forces an immediate start in DIRTY: 2 * 200.
	if math.Abs(res.TotalEmissions-400) > 1e-9 {
		t.Fatalf("emissions = %v, want 400", res.TotalEmissions)
	}
}

func TestDeadlineForcing(t *testing.T) {
	set := mkSet(t, 24*10)
	// A lazy policy that never schedules anything.
	jobs := []Job{{ID: 1, Origin: "CLEAN", Arrival: 0, Length: 3, Slack: 5, Interruptible: true}}
	res, err := Run(set, clusters(1), jobs, lazyPolicy{}, 24*10)
	if err != nil {
		t.Fatal(err)
	}
	out := res.Outcomes[0]
	if !out.Completed || out.MissedDeadline {
		t.Fatalf("deadline forcing failed: %+v", out)
	}
	// Forced at the last possible moment: hours 5,6,7 -> done at 8.
	if out.CompletedAt != 8 {
		t.Fatalf("completed at %d, want 8", out.CompletedAt)
	}
	if out.WaitHours != 5 {
		t.Fatalf("wait hours = %d, want 5", out.WaitHours)
	}
}

type lazyPolicy struct{}

func (lazyPolicy) Name() string           { return "lazy" }
func (lazyPolicy) Plan(*Tick) []Placement { return nil }

func TestNonInterruptibleRunsToCompletion(t *testing.T) {
	set := mkSet(t, 24*10)
	// Starts at a cheap hour but must keep running into the expensive
	// half of the day.
	jobs := []Job{{ID: 1, Origin: "DIRTY", Arrival: 6, Length: 10, Slack: 0}}
	res, err := Run(set, clusters(1), jobs, FIFO{}, 24*10)
	if err != nil {
		t.Fatal(err)
	}
	out := res.Outcomes[0]
	if !out.Completed || out.CompletedAt != 16 {
		t.Fatalf("outcome = %+v", out)
	}
	// Hours 6-11 at 200 (6h) + hours 12-15 at 800 (4h) = 4400.
	if math.Abs(out.Emissions-4400) > 1e-9 {
		t.Fatalf("emissions = %v, want 4400", out.Emissions)
	}
}

func TestContentionCausesMisses(t *testing.T) {
	set := mkSet(t, 50)
	// Two pinned, simultaneous, zero-slack jobs on a one-slot cluster:
	// one must miss.
	jobs := []Job{
		{ID: 1, Origin: "CLEAN", Arrival: 0, Length: 5, Slack: 0},
		{ID: 2, Origin: "CLEAN", Arrival: 0, Length: 5, Slack: 0},
	}
	res, err := Run(set, []Cluster{{Region: "CLEAN", Slots: 1}, {Region: "DIRTY", Slots: 1}}, jobs, FIFO{}, 50)
	if err != nil {
		t.Fatal(err)
	}
	if res.Missed != 1 {
		t.Fatalf("missed = %d, want 1 (capacity contention)", res.Missed)
	}
	if res.Completed != 2 {
		t.Fatalf("completed = %d, want 2 (late but finished)", res.Completed)
	}
}

func TestRunValidation(t *testing.T) {
	set := mkSet(t, 50)
	good := []Job{{ID: 1, Origin: "CLEAN", Arrival: 0, Length: 1, Slack: 0}}
	if _, err := Run(set, clusters(1), good, nil, 50); err == nil {
		t.Error("nil policy accepted")
	}
	if _, err := Run(set, clusters(1), good, FIFO{}, 0); err == nil {
		t.Error("zero horizon accepted")
	}
	if _, err := Run(set, clusters(1), good, FIFO{}, 51); err == nil {
		t.Error("horizon past trace accepted")
	}
	if _, err := Run(set, nil, good, FIFO{}, 50); err == nil {
		t.Error("no clusters accepted")
	}
	if _, err := Run(set, []Cluster{{Region: "CLEAN", Slots: 0}}, good, FIFO{}, 50); err == nil {
		t.Error("zero slots accepted")
	}
	if _, err := Run(set, []Cluster{{Region: "NOPE", Slots: 1}}, good, FIFO{}, 50); err == nil {
		t.Error("unknown cluster region accepted")
	}
	dupCluster := []Cluster{{Region: "CLEAN", Slots: 1}, {Region: "CLEAN", Slots: 1}}
	if _, err := Run(set, dupCluster, good, FIFO{}, 50); err == nil {
		t.Error("duplicate cluster accepted")
	}
	bad := []Job{{ID: 1, Origin: "CLEAN", Arrival: 0, Length: 0, Slack: 0}}
	if _, err := Run(set, clusters(1), bad, FIFO{}, 50); err == nil {
		t.Error("zero-length job accepted")
	}
	orphan := []Job{{ID: 1, Origin: "NOPE", Arrival: 0, Length: 1, Slack: 0}}
	if _, err := Run(set, clusters(1), orphan, FIFO{}, 50); err == nil {
		t.Error("job without a cluster accepted")
	}
	dup := []Job{
		{ID: 1, Origin: "CLEAN", Arrival: 0, Length: 1, Slack: 0},
		{ID: 1, Origin: "CLEAN", Arrival: 0, Length: 1, Slack: 0},
	}
	if _, err := Run(set, clusters(1), dup, FIFO{}, 50); err == nil {
		t.Error("duplicate job ids accepted")
	}
}

func TestMisbehavingPolicyRejected(t *testing.T) {
	set := mkSet(t, 50)
	jobs := []Job{{ID: 1, Origin: "CLEAN", Arrival: 0, Length: 2, Slack: 10, Interruptible: true, Migratable: false}}
	cases := []struct {
		name string
		p    Policy
	}{
		{"unknown job", placer{{Job: 1, Region: clean}}},
		{"negative job", placer{{Job: -1, Region: clean}}},
		{"unknown region", placer{{Job: 0, Region: 2}}},
		{"negative region", placer{{Job: 0, Region: -1}}},
		{"pinned migration", placer{{Job: 0, Region: dirty}}},
		{"double placement", placer{{Job: 0, Region: clean}, {Job: 0, Region: clean}}},
	}
	for _, c := range cases {
		if _, err := Run(set, clusters(1), jobs, c.p, 50); err == nil {
			t.Errorf("%s accepted", c.name)
		}
	}
}

// placer places by fixed positions in the eligible list; with CLEAN and
// DIRTY clusters, region index 0 is CLEAN and 1 is DIRTY.
type placer []Placement

const clean, dirty = 0, 1

func (placer) Name() string             { return "placer" }
func (p placer) Plan(*Tick) []Placement { return p }

func TestOversubscriptionRejected(t *testing.T) {
	set := mkSet(t, 50)
	jobs := []Job{
		{ID: 1, Origin: "CLEAN", Arrival: 0, Length: 2, Slack: 10, Interruptible: true},
		{ID: 2, Origin: "CLEAN", Arrival: 0, Length: 2, Slack: 10, Interruptible: true},
	}
	p := placer{{Job: 0, Region: clean}, {Job: 1, Region: clean}}
	if _, err := Run(set, []Cluster{{Region: "CLEAN", Slots: 1}, {Region: "DIRTY", Slots: 1}}, jobs, p, 50); err == nil {
		t.Error("oversubscription accepted")
	}
}

func TestUtilizationAccounting(t *testing.T) {
	set := mkSet(t, 10)
	jobs := []Job{{ID: 1, Origin: "CLEAN", Arrival: 0, Length: 4, Slack: 0}}
	res, err := Run(set, []Cluster{{Region: "CLEAN", Slots: 2}, {Region: "DIRTY", Slots: 2}}, jobs, FIFO{}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if res.SlotHoursUsed != 4 || res.SlotHoursTotal != 40 {
		t.Fatalf("slot hours = %v/%v", res.SlotHoursUsed, res.SlotHoursTotal)
	}
	if math.Abs(res.Utilization()-0.1) > 1e-9 {
		t.Fatalf("utilization = %v", res.Utilization())
	}
}

func TestGenerateJobs(t *testing.T) {
	spec := WorkloadSpec{
		Jobs:              200,
		ArrivalSpan:       500,
		SlackHours:        24,
		InterruptibleFrac: 0.5,
		MigratableFrac:    0.7,
		Origins:           []string{"CLEAN", "DIRTY"},
		Seed:              1,
	}
	jobs, err := GenerateJobs(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 200 {
		t.Fatalf("jobs = %d", len(jobs))
	}
	interruptible, migratable := 0, 0
	for i, j := range jobs {
		if err := j.Validate(); err != nil {
			t.Fatal(err)
		}
		if j.Arrival < 0 || j.Arrival >= 500 {
			t.Fatalf("arrival out of span: %+v", j)
		}
		if i > 0 && jobs[i-1].Arrival > j.Arrival {
			t.Fatal("jobs not sorted by arrival")
		}
		if j.Interruptible {
			interruptible++
		}
		if j.Migratable {
			migratable++
		}
	}
	if interruptible < 60 || interruptible > 140 {
		t.Fatalf("interruptible count = %d, want ~100", interruptible)
	}
	if migratable < 100 || migratable > 180 {
		t.Fatalf("migratable count = %d, want ~140", migratable)
	}
	// Determinism.
	again, err := GenerateJobs(spec)
	if err != nil {
		t.Fatal(err)
	}
	for i := range jobs {
		if jobs[i] != again[i] {
			t.Fatal("job generation not deterministic")
		}
	}
}

func TestGenerateJobsValidation(t *testing.T) {
	bad := []WorkloadSpec{
		{Jobs: 0, ArrivalSpan: 10, Origins: []string{"A"}},
		{Jobs: 1, ArrivalSpan: 0, Origins: []string{"A"}},
		{Jobs: 1, ArrivalSpan: 10},
		{Jobs: 1, ArrivalSpan: 10, Origins: []string{"A"}, MigratableFrac: 1.5},
		{Jobs: 1, ArrivalSpan: 10, Origins: []string{"A"}, InterruptibleFrac: -0.1},
		{Jobs: 1, ArrivalSpan: 10, Origins: []string{"A"}, SlackHours: -3},
		{Jobs: 1, ArrivalSpan: 10, Origins: []string{"A"}, InterruptibleFrac: math.NaN()},
		{Jobs: 1, ArrivalSpan: 10, Origins: []string{"A"}, MigratableFrac: math.NaN()},
	}
	for i, spec := range bad {
		if _, err := GenerateJobs(spec); err == nil {
			t.Errorf("bad spec %d accepted", i)
		}
	}
}

// TestPolicyOrdering is the integration check: on a diurnal grid with
// ample capacity, emissions must rank
// spatiotemporal <= greenest-first <= fifo and
// carbon-gate <= fifo.
func TestPolicyOrdering(t *testing.T) {
	set := mkSet(t, 24*30)
	jobs, err := GenerateJobs(WorkloadSpec{
		Jobs:              120,
		ArrivalSpan:       24 * 20,
		Dist:              workload.DistEqual,
		SlackHours:        48,
		InterruptibleFrac: 0.8,
		MigratableFrac:    0.6,
		Origins:           []string{"CLEAN", "DIRTY"},
		Seed:              3,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Cap job lengths so everything can finish inside the horizon.
	for i := range jobs {
		if jobs[i].Length > 48 {
			jobs[i].Length = 48
		}
	}
	run := func(p Policy) Result {
		t.Helper()
		res, err := Run(set, clusters(60), jobs, p, 24*30)
		if err != nil {
			t.Fatal(err)
		}
		if res.Missed != 0 {
			t.Fatalf("%s missed %d deadlines with ample capacity", p.Name(), res.Missed)
		}
		return res
	}
	fifo := run(FIFO{})
	gate := run(CarbonGate{Percentile: 40, Window: 48})
	greenest := run(GreenestFirst{})
	combined := run(SpatioTemporal{Percentile: 40, Window: 48})

	if gate.TotalEmissions >= fifo.TotalEmissions {
		t.Errorf("carbon-gate (%v) not below fifo (%v)", gate.TotalEmissions, fifo.TotalEmissions)
	}
	if greenest.TotalEmissions >= fifo.TotalEmissions {
		t.Errorf("greenest-first (%v) not below fifo (%v)", greenest.TotalEmissions, fifo.TotalEmissions)
	}
	if combined.TotalEmissions > greenest.TotalEmissions+1e-9 {
		t.Errorf("spatiotemporal (%v) worse than greenest-first (%v)", combined.TotalEmissions, greenest.TotalEmissions)
	}
}

// TestContentionShrinksSavings encodes the paper's §5.2.5 point at
// simulator scale: as capacity tightens, the carbon-aware policy's
// advantage over FIFO shrinks, because jobs can no longer all crowd
// into the clean valleys.
func TestContentionShrinksSavings(t *testing.T) {
	set := mkSet(t, 24*30)
	jobs, err := GenerateJobs(WorkloadSpec{
		Jobs:              150,
		ArrivalSpan:       24 * 20,
		SlackHours:        48,
		InterruptibleFrac: 1,
		MigratableFrac:    0,
		Origins:           []string{"DIRTY"},
		Seed:              5,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range jobs {
		if jobs[i].Length > 24 {
			jobs[i].Length = 24
		}
	}
	advantage := func(slots int) float64 {
		cl := []Cluster{{Region: "DIRTY", Slots: slots}, {Region: "CLEAN", Slots: 1}}
		fifo, err := Run(set, cl, jobs, FIFO{}, 24*30)
		if err != nil {
			t.Fatal(err)
		}
		gate, err := Run(set, cl, jobs, CarbonGate{Percentile: 40, Window: 48}, 24*30)
		if err != nil {
			t.Fatal(err)
		}
		return (fifo.TotalEmissions - gate.TotalEmissions) / fifo.TotalEmissions
	}
	loose := advantage(200)
	tight := advantage(5)
	if tight >= loose {
		t.Fatalf("contention did not shrink savings: tight %.3f vs loose %.3f", tight, loose)
	}
}

func BenchmarkRunMonth(b *testing.B) {
	clean := make([]float64, 24*30)
	dirty := make([]float64, 24*30)
	for h := range clean {
		clean[h] = 20
		dirty[h] = 200 + 600*float64(h%24)/24
	}
	set, err := trace.NewSet([]*trace.Trace{
		trace.New("CLEAN", t0, clean),
		trace.New("DIRTY", t0, dirty),
	})
	if err != nil {
		b.Fatal(err)
	}
	jobs, err := GenerateJobs(WorkloadSpec{
		Jobs: 500, ArrivalSpan: 24 * 20, SlackHours: 48,
		InterruptibleFrac: 0.8, MigratableFrac: 0.5,
		Origins: []string{"CLEAN", "DIRTY"}, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	cl := []Cluster{{Region: "CLEAN", Slots: 100}, {Region: "DIRTY", Slots: 100}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(set, cl, jobs, SpatioTemporal{Percentile: 40, Window: 48}, 24*30); err != nil {
			b.Fatal(err)
		}
	}
}

// TestGenerateJobsGolden pins the generated stream bit for bit: every
// benchmark input, oracle digest and experiment table downstream of
// GenerateJobs depends on the exact jobs and their exact order. The
// digests were recorded before GenerateJobs' sort and
// Distribution.Sample were rewritten; a change that moves one is not a
// refactor.
func TestGenerateJobsGolden(t *testing.T) {
	cases := []struct {
		name, want string
		spec       WorkloadSpec
	}{
		{"google over a year", "25c0908528ed856c90cf0c5b7e07451d361bfb7ff79acde90ab0e66b82703d5f", WorkloadSpec{
			Jobs: 20000, ArrivalSpan: 8760, Dist: workload.DistGoogle, SlackHours: 24,
			InterruptibleFrac: 0.5, MigratableFrac: 0.7,
			Origins: []string{"CLEAN", "DIRTY", "MID"}, Seed: 1,
		}},
		{"zero Dist defaults to equal", "a5de280193245a41d525ad855b5e224e092f76f826bbea3f84f46556e8dfead4", WorkloadSpec{
			Jobs: 5000, ArrivalSpan: 37, SlackHours: 168,
			InterruptibleFrac: 1, Origins: []string{"A", "B"}, Seed: 42,
		}},
		{"every job at hour zero", "f338841696ad946d47839645ceff6513c19852c4c4524e114a934447708a1a77", WorkloadSpec{
			Jobs: 3000, ArrivalSpan: 1, Dist: workload.DistAzure,
			MigratableFrac: 0.25, Origins: []string{"X"}, Seed: 7,
		}},
	}
	for _, c := range cases {
		jobs, err := GenerateJobs(c.spec)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		h := sha256.New()
		for _, j := range jobs {
			fmt.Fprintf(h, "%d %s %q %d %d %d %t %t\n", j.ID, j.Origin, j.Tenant,
				j.Arrival, j.Length, j.Slack, j.Interruptible, j.Migratable)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != c.want {
			t.Errorf("%s: stream digest %s, want %s", c.name, got, c.want)
		}
	}
}
