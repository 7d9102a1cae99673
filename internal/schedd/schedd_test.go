package schedd

import (
	"math"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"carbonshift/internal/sched"
	"carbonshift/internal/trace"
)

var t0 = time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)

// mkSet builds the first n regions of the test world (regionNames):
// CLEAN is flat and green and DIRTY has a strong diurnal cycle, as in
// the sched tests; region r from the third on has the baseline 50+90r
// g/kWh and a diurnal cycle of ±200 g/kWh shifted by 3r hours, so
// spatial policies migrate between them.
func mkSet(t testing.TB, hours, n int) *trace.Set {
	t.Helper()
	var traces []*trace.Trace
	names := world{regions: n}.regionNames()
	for r := range n {
		ci := make([]float64, hours)
		for h := range ci {
			switch r {
			case 0:
				ci[h] = 20
			case 1:
				ci[h] = []float64{200, 800}[h%24/12]
			default:
				ci[h] = 50 + 90*float64(r) + 200*(1+math.Sin(2*math.Pi*float64(h+3*r)/24))
			}
		}
		traces = append(traces, trace.New(names[r], t0, ci))
	}
	s, err := trace.NewSet(traces)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func clusters(slots int) []sched.Cluster {
	return []sched.Cluster{{Region: "CLEAN", Slots: slots}, {Region: "DIRTY", Slots: slots}}
}

// hourClock is a settable replay clock: the served hour is whatever the
// test last stored.
type hourClock struct{ hour atomic.Int64 }

func (c *hourClock) now() time.Time { return t0.Add(time.Duration(c.hour.Load()) * time.Hour) }

// wallClock is a settable gate clock for WithGateClock: t0 plus what the
// test advanced it by.
type wallClock struct{ elapsed atomic.Int64 }

func (c *wallClock) now() time.Time          { return t0.Add(time.Duration(c.elapsed.Load())) }
func (c *wallClock) advance(d time.Duration) { c.elapsed.Add(int64(d)) }

func TestSubmitAndLifecycle(t *testing.T) {
	admit(t, world{policy: sched.FIFO{}, slots: 4},
		send(acked(0), JobRequest{Origin: "DIRTY", LengthHours: 3, SlackHours: 24}),
		lookup(0, 0, func(j JobResponse) bool { return j.State == "queued" && j.RemainingHours == 3 }),
		// One replay hour later FIFO has started it.
		lookup(1, 0, func(j JobResponse) bool { return j.State == "running" && j.Region == "DIRTY" && j.RemainingHours == 2 }),
		lookup(3, 0, func(j JobResponse) bool { return j.State == "done" && j.CompletedAt == 3 && j.EmissionsG == 600 }))
}

// TestBatchSubmit: a batch admits whole, and greenest-first routes its
// migratable DIRTY job to CLEAN.
func TestBatchSubmit(t *testing.T) {
	admit(t, world{policy: sched.GreenestFirst{}, slots: 8},
		hour(2),
		send(acked(0, 1, 2),
			JobRequest{Origin: "DIRTY", LengthHours: 2, SlackHours: 12, Migratable: true},
			JobRequest{Origin: "CLEAN", LengthHours: 1, SlackHours: 12},
			JobRequest{Origin: "DIRTY", LengthHours: 4, SlackHours: 12, Interruptible: true}),
		lookup(8, 0, func(j JobResponse) bool { return j.Region == "CLEAN" }),
		act(func(c *cluster) {
			if st := c.primary.srv.stats(); st.Submitted != 3 || st.Completed != 3 || st.Missed != 0 {
				t.Fatalf("stats = %+v", st)
			}
		}))
}

func TestStatsShape(t *testing.T) {
	c := newCluster(t, world{policy: sched.FIFO{}, slots: 4, memory: true, cfg: Config{Seed: 42}})
	stats, err := c.primary.client.Stats(c.ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Policy != "fifo" || stats.Seed != 42 || stats.Horizon != simHorizon {
		t.Fatalf("stats = %+v", stats)
	}
	if len(stats.Clusters) != 2 || stats.Clusters[0].Region != "CLEAN" || stats.Clusters[0].Slots != 4 {
		t.Fatalf("clusters = %+v", stats.Clusters)
	}
}

func TestHealthz(t *testing.T) {
	c := newCluster(t, world{policy: sched.FIFO{}, slots: 1, memory: true})
	var out map[string]string
	if err := c.primary.client.get(c.ctx, "/healthz", &out); err != nil {
		t.Fatal(err)
	}
}

// TestDrainResolvesEverything: the clock never advances; Drain alone
// must run the world forward.
func TestDrainResolvesEverything(t *testing.T) {
	job := JobRequest{Origin: "DIRTY", LengthHours: 3, SlackHours: 48, Interruptible: true}
	admit(t, world{policy: sched.CarbonGate{Percentile: 40, Window: 24}, slots: 4},
		send(ok, job, job, job, job, job), send(ok, job, job, job, job, job),
		act(func(c *cluster) {
			if c.drain(); c.result.Completed != 10 || c.result.Missed != 0 || c.result.TotalEmissions <= 0 {
				t.Fatalf("drained result: completed %d, missed %d, emissions %v", c.result.Completed, c.result.Missed, c.result.TotalEmissions)
			}
		}))
}

// TestConfigRefusesNegatives: only 0 selects a default. A negative bound,
// snapshot cadence, horizon, partition count, id base or replay speed,
// a partition id outside [0, Partitions) — 0 when unpartitioned — and
// a sync mode wal does not have, with or without a journal, are refused
// by name before anything is built (NewFollower builds through the same
// newServer), and so are a follower's negative probe cadence, probe
// budget and reconnect delay.
func TestConfigRefusesNegatives(t *testing.T) {
	for _, tc := range []struct {
		name string // the field refused, first
		cfg  any    // a Config for New, a FollowerConfig for NewFollower
	}{
		{"MaxJobs", Config{MaxJobs: -5}},
		{"MaxQueue", Config{MaxQueue: -7}},
		{"SnapshotEvery", Config{SnapshotEvery: -1}},
		{"Horizon", Config{Horizon: -1}},
		{"Partitions", Config{Partitions: -2}},
		{"IDBase", Config{IDBase: -1}},
		{"Speedup", Config{Speedup: -1}},
		{"PartitionID below 0", Config{Partitions: 2, PartitionID: -1}},
		{"PartitionID past Partitions", Config{Partitions: 2, PartitionID: 2}},
		{"PartitionID unpartitioned", Config{PartitionID: 1}},
		{"Sync", Config{Sync: 5}},
		{"Sync journaled", Config{Sync: 3, DataDir: t.TempDir()}},
		{"ProbeInterval", FollowerConfig{ProbeInterval: -time.Second}},
		{"ProbeFailures", FollowerConfig{ProbeFailures: -1}},
		{"ReconnectDelay", FollowerConfig{ReconnectDelay: -time.Millisecond}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			field, _, _ := strings.Cut(tc.name, " ")
			var s *Server
			var err error
			switch cfg := tc.cfg.(type) {
			case Config:
				cfg.Policy = sched.FIFO{}
				s, err = New(mkSet(t, 48, 2), clusters(2), cfg)
			case FollowerConfig:
				s, err = world{policy: sched.FIFO{}}.follower(t, "http://127.0.0.1:1", "", cfg)
			}
			if err == nil {
				s.Close()
				t.Fatalf("%+v accepted", tc.cfg)
			}
			if !strings.Contains(err.Error(), "Config."+field) {
				t.Fatalf("%+v: %v, want a refusal naming Config.%s", tc.cfg, err, field)
			}
		})
	}
}
