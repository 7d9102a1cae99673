// Package sched is an hour-stepped simulator of a carbon-aware
// multi-region cluster scheduler — the kind of system (Borg,
// Kubernetes, Slurm) the paper assumes will exploit workload
// flexibility, with the resource constraints its limits analysis
// deliberately idealizes away (§5.2.5: "the actual carbon reductions
// are likely to be much less due to ... resource constraints that
// prevent running many jobs during low carbon periods").
//
// The simulator enforces what the analytical upper bounds do not:
//
//   - finite slots per regional cluster;
//   - non-interruptible jobs run to completion once started;
//   - non-migratable jobs stay in their origin region;
//   - deadlines: a job with exhausted slack is forced to run, and a
//     job that cannot be placed in time is counted as missed.
//
// Policies decide where and when the remaining (flexible) jobs run.
// Comparing a policy's fleet emissions against the unconstrained
// bounds from internal/temporal and internal/spatial quantifies the
// gap between the paper's ideal and an actual scheduler.
package sched

import (
	"fmt"
	"math"

	"carbonshift/internal/tenant"
	"carbonshift/internal/trace"
)

// Job is one unit of work submitted to the fleet.
type Job struct {
	// ID must be unique within a run.
	ID int
	// Origin is the submission region.
	Origin string
	// Tenant names the submitting tenant ("" means the default
	// tenant). It drives fair-share dequeue and per-tenant accounting;
	// names are bounded and character-restricted (tenant.NameOK).
	Tenant string
	// Arrival is the submission hour (trace index).
	Arrival int
	// Length is the required run-hours.
	Length int
	// Slack bounds deferral: the job must finish by
	// Arrival+Length+Slack.
	Slack int
	// Interruptible jobs may be suspended and resumed.
	Interruptible bool
	// Migratable jobs may run outside Origin.
	Migratable bool
}

// maxHour bounds every hour a job can name: Validate refuses a job
// whose Arrival, Length, Slack or deadline exceeds it, so hour arithmetic
// never overflows and the fleet can keep hours in 32 bits.
const maxHour = math.MaxInt32

// Deadline returns the completion deadline (exclusive hour).
func (j Job) Deadline() int { return j.Arrival + j.Length + j.Slack }

// Validate reports structural problems.
func (j Job) Validate() error {
	if j.Length < 1 {
		return fmt.Errorf("sched: job %d length %d", j.ID, j.Length)
	}
	if j.Arrival < 0 || j.Slack < 0 {
		return fmt.Errorf("sched: job %d negative arrival or slack", j.ID)
	}
	if j.Arrival > maxHour || j.Length > maxHour || j.Slack > maxHour ||
		int64(j.Arrival)+int64(j.Length)+int64(j.Slack) > maxHour {
		return fmt.Errorf("sched: job %d deadline past hour %d", j.ID, maxHour)
	}
	if j.Origin == "" {
		return fmt.Errorf("sched: job %d has no origin", j.ID)
	}
	if !tenant.NameOK(j.Tenant) {
		return fmt.Errorf("sched: job %d bad tenant name %q", j.ID, j.Tenant)
	}
	return nil
}

// Cluster is one region's capacity.
type Cluster struct {
	Region string
	// Slots is the number of jobs that can run concurrently.
	Slots int
}

// JobView is the read-only picture of a schedulable job handed to
// policies. It carries no names: Origin is a region index, and the job
// is named by its position in Tick.Eligible.
type JobView struct {
	Origin          int // region index
	Remaining       int // run-hours still needed
	HoursToDeadline int
	Interruptible   bool
	Migratable      bool
}

// SlackLeft returns how many hours the job can still afford to wait.
func (v JobView) SlackLeft() int { return v.HoursToDeadline - v.Remaining }

// Tick is the per-hour scheduling context given to policies. A region
// is named by its index in the fleet's sorted cluster list
// (Fleet.Regions); every per-region slice below is indexed so.
//
// The Tick and its slices are the fleet's scratch, refilled every hour:
// a policy reads them (and counts Free down) during Plan and must not
// keep or replace any of them past the call.
type Tick struct {
	// Hour is the current trace hour.
	Hour int
	// CI is each region's carbon intensity at Hour.
	CI []float64
	// Free is each region's remaining capacity after forced placements.
	// It is the policy's own copy: Plan may count it down as it places,
	// and must not place into a region at zero.
	Free []int
	// Eligible lists the jobs the policy may place this hour — in
	// arrival order, or in weighted-fair order when the fleet has a
	// tenant FairQueue installed (same-tenant jobs keep arrival order).
	Eligible []JobView

	traces []*trace.Trace // by region index, for Lookback
}

// Lookback returns up to n trailing hours of a region's intensity
// (oldest first), excluding the current hour. Policies use it for
// threshold estimation; it never exposes the future.
func (t *Tick) Lookback(region, n int) []float64 {
	return t.traces[region].CI[max(t.Hour-n, 0):t.Hour]
}

// Placement runs one eligible job in a region for the current hour:
// Job is its position in Tick.Eligible, Region a region index.
type Placement struct {
	Job, Region int
}

// Policy decides placements each hour. Plan must not retain t (see
// Tick).
type Policy interface {
	Name() string
	Plan(t *Tick) []Placement
}

// Outcome is one job's fate.
type Outcome struct {
	Job
	// Completed reports whether the job finished within the horizon.
	Completed bool
	// CompletedAt is the hour after the final run-hour (valid when
	// Completed).
	CompletedAt int
	// MissedDeadline reports a completion (or horizon end) past the
	// deadline.
	MissedDeadline bool
	// Emissions is the job's total g·CO₂eq (1 kW draw).
	Emissions float64
	// WaitHours counts hours spent runnable but not running.
	WaitHours int
	// Migrations counts region changes.
	Migrations int
}

// Result aggregates a simulation run.
type Result struct {
	Policy string
	// Outcomes holds one entry per submitted job, in input order.
	Outcomes []Outcome
	// TotalEmissions is the fleet total in g·CO₂eq.
	TotalEmissions float64
	// Completed and Missed count job outcomes.
	Completed, Missed int
	// MeanWaitHours averages over completed jobs.
	MeanWaitHours float64
	// SlotHoursUsed and SlotHoursTotal give fleet utilization.
	SlotHoursUsed, SlotHoursTotal float64
}

// Utilization returns used/total slot-hours.
func (r Result) Utilization() float64 {
	if r.SlotHoursTotal == 0 {
		return 0
	}
	return r.SlotHoursUsed / r.SlotHoursTotal
}

// Run simulates the fleet from hour 0 to horizon (exclusive) and
// returns the aggregate result. All job windows must fit the trace.
// Run is the offline mode of Fleet, the core internal/schedd
// serves online: it submits every job up front and steps through the
// whole horizon. Every Step runs on the calling goroutine, so concurrent
// Runs from engine workers (cmd/carbonsched, internal/core) start no
// goroutines of their own.
//
// Run inherits the core's two capacity bounds and refuses what exceeds
// them: at most math.MaxInt16 clusters and at most 2³² jobs.
func Run(set *trace.Set, clusters []Cluster, jobs []Job, policy Policy, horizon int) (Result, error) {
	f, err := NewFleet(set, clusters, policy, horizon)
	if err != nil {
		return Result{}, err
	}
	if err := f.Submit(jobs...); err != nil {
		return Result{}, err
	}
	for !f.Done() {
		if err := f.Step(); err != nil {
			return Result{}, err
		}
	}
	return f.Snapshot(), nil
}
