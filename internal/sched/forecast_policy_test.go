package sched

import (
	"testing"

	"carbonshift/internal/regions"
	"carbonshift/internal/simgrid"
	"carbonshift/internal/trace"
)

func TestForecastGateDefaults(t *testing.T) {
	p := ForecastGate{}
	if p.Name() == "" {
		t.Fatal("empty name")
	}
	if p.model() == nil || p.history() != 21*24 || p.horizon() != 24 {
		t.Fatalf("defaults wrong: %d %d", p.history(), p.horizon())
	}
}

func TestForecastGateRunsDuringWarmup(t *testing.T) {
	// With no history the gate must not deadlock jobs.
	set := mkSet(t, 24*5)
	jobs := []Job{{ID: 1, Origin: "DIRTY", Arrival: 0, Length: 3, Slack: 60, Interruptible: true}}
	res, err := Run(set, clusters(1), jobs, ForecastGate{Percentile: 30}, 24*5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 1 || res.Missed != 0 {
		t.Fatalf("completed %d missed %d", res.Completed, res.Missed)
	}
}

// TestForecastGateBeatsFIFOOnRealTrace is the end-to-end check: on a
// simulated grid with a real diurnal cycle, the forecast-driven gate
// must cut emissions versus FIFO while meeting all deadlines — using
// only past data.
func TestForecastGateBeatsFIFOOnRealTrace(t *testing.T) {
	tr, err := simgrid.GenerateRegionCached(regions.MustByCode("US-CA"),
		simgrid.Config{Seed: 13, Hours: 24 * 90})
	if err != nil {
		t.Fatal(err)
	}
	set, err := trace.NewSet([]*trace.Trace{tr})
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := GenerateJobs(WorkloadSpec{
		Jobs:              120,
		ArrivalSpan:       24 * 60,
		SlackHours:        48,
		InterruptibleFrac: 1,
		MigratableFrac:    0,
		Origins:           []string{"US-CA"},
		Seed:              13,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range jobs {
		if jobs[i].Length > 24 {
			jobs[i].Length = 24
		}
		// Start arrivals after the model's warmup so the gate has
		// history to forecast from.
		jobs[i].Arrival += 22 * 24
	}
	cl := []Cluster{{Region: "US-CA", Slots: 60}}
	fifo, err := Run(set, cl, jobs, FIFO{}, 24*90)
	if err != nil {
		t.Fatal(err)
	}
	gate, err := Run(set, cl, jobs, ForecastGate{Percentile: 30}, 24*90)
	if err != nil {
		t.Fatal(err)
	}
	if gate.Missed != 0 {
		t.Fatalf("forecast gate missed %d deadlines", gate.Missed)
	}
	if gate.TotalEmissions >= fifo.TotalEmissions {
		t.Fatalf("forecast gate (%v) not below FIFO (%v)", gate.TotalEmissions, fifo.TotalEmissions)
	}
	saving := (fifo.TotalEmissions - gate.TotalEmissions) / fifo.TotalEmissions
	if saving < 0.05 {
		t.Fatalf("forecast gate saving only %.1f%%, expected meaningful savings on a solar-heavy grid", 100*saving)
	}
}

// TestForecastGateNearClairvoyantGate compares the deployable policy
// against the trailing-percentile CarbonGate: they should land in the
// same savings band.
func TestForecastGateNearClairvoyantGate(t *testing.T) {
	tr, err := simgrid.GenerateRegionCached(regions.MustByCode("DE"),
		simgrid.Config{Seed: 17, Hours: 24 * 90})
	if err != nil {
		t.Fatal(err)
	}
	set, err := trace.NewSet([]*trace.Trace{tr})
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := GenerateJobs(WorkloadSpec{
		Jobs:              80,
		ArrivalSpan:       24 * 55,
		SlackHours:        48,
		InterruptibleFrac: 1,
		MigratableFrac:    0,
		Origins:           []string{"DE"},
		Seed:              17,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range jobs {
		if jobs[i].Length > 24 {
			jobs[i].Length = 24
		}
		jobs[i].Arrival += 22 * 24
	}
	cl := []Cluster{{Region: "DE", Slots: 40}}
	trailing, err := Run(set, cl, jobs, CarbonGate{Percentile: 30, Window: 168}, 24*90)
	if err != nil {
		t.Fatal(err)
	}
	forecastRes, err := Run(set, cl, jobs, ForecastGate{Percentile: 30}, 24*90)
	if err != nil {
		t.Fatal(err)
	}
	ratio := forecastRes.TotalEmissions / trailing.TotalEmissions
	if ratio > 1.25 {
		t.Fatalf("forecast gate %.0f vs trailing gate %.0f (ratio %.2f): model-driven policy far off",
			forecastRes.TotalEmissions, trailing.TotalEmissions, ratio)
	}
}
