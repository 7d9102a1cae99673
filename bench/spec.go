package main

import (
	"fmt"

	"carbonshift/internal/workload"
)

// A workload is either an online replay through the topology or the
// paper's offline deliverable; exactly one of Online and Offline is
// set. An untraced run executes that part only, so a metric that does
// not apply to the workload is not measured.
//
// Sizes below are the full sizes (-seconds 50). -seconds multiplies job
// counts, slots, read counts and the lab's arrival span by one common
// factor and never touches the mix: regions, replay hours, policy,
// protocol, batch size, length distribution and flexibility shares
// stay as written here.
type workloadSpec struct {
	Name string
	// Reason is why the workload exists; BENCHMARK.json's "why" is the
	// nominal sizes (rendered from the spec) followed by it.
	Reason  string
	Online  *onlineSpec
	Offline *offlineSpec
}

// onlineSpec sizes the replay through client → gateway → 2 partitions
// × (fsync-always primary + hot standby).
type onlineSpec struct {
	Regions      int // first N catalog regions; 0 = all 123
	Slots        int // per region (scaled with Jobs so utilisation holds)
	Policy       string
	Tenants      bool
	Jobs         int
	ArrivalHours int
	Horizon      int
	Lengths      workload.Distribution
	MaxLength    int
	Slack        int
	Interrupt    float64
	Migrate      float64
	Binary       bool
	Batch        int
	Lookups      int
	StatsPolls   int
}

// offlineSpec sizes the paper's own deliverable: every registered
// experiment on a Lab, then the clairvoyant oracle — sched.Run with
// fifo and with spatiotemporal over OracleJobs jobs drawn like Oracle's
// stream, on Oracle's world.
type offlineSpec struct {
	LabRegions  int // first N catalog regions; 0 = all 123
	ArrivalSpan int // core.Options.ArrivalSpan (8760 = the paper's full year)
	OracleJobs  int
	Oracle      onlineSpec
}

var shortJobs = mustDist("short", map[int]float64{1: 1, 2: 1, 3: 1, 4: 1})

func mustDist(name string, w map[int]float64) workload.Distribution {
	d, err := workload.NewDistribution(name, w)
	if err != nil {
		panic(err)
	}
	return d
}

var residentWorld = onlineSpec{
	Regions: 0, Slots: 1000, Policy: "spatiotemporal", Tenants: true,
	Jobs: 400_000, ArrivalHours: 336, Horizon: 576,
	Lengths: workload.DistAzure, MaxLength: 24, Slack: 96,
	Interrupt: 0.8, Migrate: 0.5,
	Binary: true, Batch: 64,
	Lookups: 20_000, StatsPolls: 200,
}

var binaryBatch = onlineSpec{
	Regions: 16, Slots: 2000, Policy: "fifo", Tenants: true,
	Jobs: 1_200_000, ArrivalHours: 480, Horizon: 600,
	Lengths: shortJobs, MaxLength: 4, Slack: 48,
	Binary: true, Batch: 64, Lookups: 20_000, StatsPolls: 200,
}

// The traced run's stand-ins. BENCHMARK.json's per-layer list is one
// list, and a traced run must report all of it, so a traced run of an
// online workload also runs a small offline part (for core.*, engine.*
// and sched.run_s.*) and the traced run of offline_paper also replays a
// small online part (for everything else). canaryOnline is
// gw_binary_batch64's shape at a sixth of its size: it exercises every
// online layer, tenancy included, and of the online shapes it depends
// least on the disk. canaryOffline is a 20-region lab, because the
// experiments' cost grows with regions × arrival span and the traced
// run has two replays and every probe to fit in as well.
var (
	canaryOnline  = func() onlineSpec { s := binaryBatch; s.Jobs = 200_000; return s }()
	canaryOffline = offlineSpec{LabRegions: 20, ArrivalSpan: 2190, OracleJobs: 50_000, Oracle: residentWorld}
)

func workloads() []workloadSpec {
	return []workloadSpec{
		{
			Name:   "gw_json_single",
			Reason: "gateway raw-proxy path: per-request cost (HTTP, JSON, hop, one wal group commit per ack); fsync-bound, Step negligible",
			Online: &onlineSpec{
				Regions: 16, Slots: 2000, Policy: "fifo",
				Jobs: 75_000, ArrivalHours: 480, Horizon: 600,
				Lengths: shortJobs, MaxLength: 4, Slack: 48,
				Batch: 1, Lookups: 20_000, StatsPolls: 200,
			},
		},
		{
			Name:   "gw_binary_batch64",
			Reason: "gateway split/merge path: decode, admission, tenant gate, fleet submit; one fsync per 64 jobs",
			Online: &binaryBatch,
		},
		{
			Name:   "replay_resident",
			Reason: "a resident backlog stepped every hour of arrivals and drain: Step is half the wall",
			Online: &residentWorld,
		},
		{
			Name:    "offline_paper",
			Reason:  "the paper's deliverable, serial Fleet's only user; runs no online-path code",
			Offline: &offlineSpec{ArrivalSpan: 8760, OracleJobs: 150_000, Oracle: residentWorld},
		},
	}
}

func workloadByName(name string) (workloadSpec, error) {
	for _, w := range workloads() {
		if w.Name == name {
			return w, nil
		}
	}
	return workloadSpec{}, fmt.Errorf("unknown workload %q", name)
}

// scaleInt scales a count, keeping it at or above floor so tiny test
// sizes still exercise every path.
func scaleInt(n int, scale float64, floor int) int {
	return max(int(float64(n)*scale+0.5), floor)
}

func (s onlineSpec) scaled(scale float64) onlineSpec {
	s.Jobs = scaleInt(s.Jobs, scale, 4*s.ArrivalHours/8)
	s.Slots = scaleInt(s.Slots, scale, 8)
	s.Lookups = scaleInt(s.Lookups, scale, 64)
	s.StatsPolls = scaleInt(s.StatsPolls, scale, 4)
	return s
}

func (s offlineSpec) scaled(scale float64) offlineSpec {
	s.ArrivalSpan = scaleInt(s.ArrivalSpan, scale, 600) // ext-forecast needs an arrival past its 504 h warm-up
	s.OracleJobs = scaleInt(s.OracleJobs, scale, 200)
	s.Oracle = s.Oracle.scaled(scale)
	return s
}

func (w workloadSpec) scaled(scale float64) workloadSpec {
	if w.Online != nil {
		on := w.Online.scaled(scale)
		w.Online = &on
	}
	if w.Offline != nil {
		off := w.Offline.scaled(scale)
		w.Offline = &off
	}
	return w
}

func protoName(binary bool) string {
	if binary {
		return "binary"
	}
	return "JSON"
}

// String is the spec's shape as BENCHMARK.json words it.
func (s onlineSpec) String() string {
	tenants := ""
	if s.Tenants {
		tenants = ", 4 tenants"
	}
	return fmt.Sprintf("%d regions, %s%s, %d jobs over %d h, %s, %d per request",
		len(catalog(s.Regions)), s.Policy, tenants, s.Jobs, s.ArrivalHours, protoName(s.Binary), s.Batch)
}

func (s offlineSpec) String() string {
	return fmt.Sprintf("core.NewLab (%d regions), all experiments at arrival span %d, sched.Run fifo + spatiotemporal on %d jobs",
		len(catalog(s.LabRegions)), s.ArrivalSpan, s.OracleJobs)
}

// why is the workload's line in BENCHMARK.json: its sizes at the given
// scale, then the reason it exists.
func (w workloadSpec) why(scale float64) string {
	w = w.scaled(scale)
	if w.Online != nil {
		return w.Online.String() + ": " + w.Reason
	}
	return w.Offline.String() + ": " + w.Reason
}
