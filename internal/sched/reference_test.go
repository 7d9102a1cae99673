package sched

import (
	"cmp"
	"fmt"
	"maps"
	"sort"

	"carbonshift/internal/tenant"
	"carbonshift/internal/trace"
)

// refFleet is a deliberately naive model of Fleet: the hour-stepped world
// written as plainly as it can be, which the lockstep driver (diffCase in
// lockstep_test.go, behind TestFleetMatchesRun, TestShardedFleetEquivalence,
// TestSchedulingInvariants, TestTenancyInvariants and
// TestShardedFleetLookupAndStatsParity) and TestJobHourBounds hold Fleet
// and Run to.
//
// A job's state is the JobInfo Lookup reports, kept in submission order
// and updated in place by Step. Only MissedDeadline depends on the hour it
// is read at: view decides it, and every reader folds over view, so the
// miss/run/queue rule is written once. Regions are names; indices appear
// only in the Tick handed to the policy and the Placed handed to OnPlace.
// The model shares nothing with Fleet but the Policy, Tick, Placed and
// FairQueue contracts; keep it naive and sharing no trick with Fleet. Its
// Placed, Outcome, JobView and FleetStats literals are positional, so a
// field added to one fails to compile here until the model sets it.
// A refFleet is not safe for concurrent use.
type refFleet struct {
	set        *trace.Set
	policy     Policy
	horizon    int
	slots      map[string]int // region -> slots
	regions    []string       // sorted: region i of Tick and Placed
	totalSlots int
	hour       int
	jobs       []*JobInfo // in submission order
	byID       map[int]*JobInfo
	slotHours  float64
	fq         *tenant.FairQueue // orders the eligible jobs and is charged each job-hour
	OnPlace    func(Placed)      // sees every job-hour run, once the hour's placements are final
}

// newRefFleet validates the world and returns an empty fleet at hour 0.
func newRefFleet(set *trace.Set, clusters []Cluster, policy Policy, horizon int) (*refFleet, error) {
	if policy == nil || horizon < 1 || horizon > set.Len() || len(clusters) == 0 {
		return nil, fmt.Errorf("sched: bad world: policy %v, horizon %d, %d clusters", policy, horizon, len(clusters))
	}
	f := &refFleet{set: set, policy: policy, horizon: horizon, slots: map[string]int{}, byID: map[int]*JobInfo{}}
	for _, c := range clusters {
		if _, ok := set.Get(c.Region); !ok || c.Slots < 1 || f.slots[c.Region] > 0 {
			return nil, fmt.Errorf("sched: bad cluster %+v", c)
		}
		f.slots[c.Region] = c.Slots
		f.regions = append(f.regions, c.Region)
		f.totalSlots += c.Slots
	}
	sort.Strings(f.regions)
	return f, nil
}

// SetFairQueue installs the tenant fair queue before the first Step.
func (f *refFleet) SetFairQueue(q *tenant.FairQueue) { f.fq = q }

// Hour is the next hour to simulate, Done whether the whole horizon is
// simulated, and Jobs the number of jobs submitted.
func (f *refFleet) Hour() int  { return f.hour }
func (f *refFleet) Done() bool { return f.hour >= f.horizon }
func (f *refFleet) Jobs() int  { return len(f.jobs) }

// Submit adds jobs arriving at or after the current hour. On any error
// no job from the batch is admitted.
func (f *refFleet) Submit(jobs ...Job) error {
	batch := map[int]bool{}
	for _, j := range jobs {
		if err := j.Validate(); err != nil {
			return err
		}
		if f.slots[j.Origin] == 0 || f.byID[j.ID] != nil || batch[j.ID] || j.Arrival < f.hour {
			return fmt.Errorf("sched: job %+v has no cluster, a duplicate id or a past arrival", j)
		}
		batch[j.ID] = true
	}
	for _, j := range jobs {
		info := &JobInfo{Outcome: Outcome{Job: j}, Remaining: j.Length}
		f.jobs = append(f.jobs, info)
		f.byID[j.ID] = info
	}
	return nil
}

// ci is a region's intensity at an hour, and index its position in the
// sorted region list.
func (f *refFleet) ci(region string, hour int) float64 { return f.set.MustGet(region).At(hour) }
func (f *refFleet) index(region string) int            { return sort.SearchStrings(f.regions, region) }

// Step simulates the current hour and advances to the next. It errors
// past the horizon and on a misbehaving policy.
func (f *refFleet) Step() error {
	if f.hour >= f.horizon {
		return fmt.Errorf("sched: horizon %d exhausted", f.horizon)
	}
	hour := f.hour
	free := maps.Clone(f.slots)
	var waiting []*JobInfo // arrived and not completed, in submission order
	for _, j := range f.jobs {
		j.Running = false
		if !j.Completed && j.Arrival <= hour {
			waiting = append(waiting, j)
		}
	}
	run := map[*JobInfo]string{} // job -> the region it runs in this hour
	by := map[*JobInfo]By{}      // job -> the phase that placed it
	place := func(j *JobInfo, region string, b By) {
		run[j], by[j] = region, b
		free[region]--
	}

	// Phase 1: a started non-interruptible job keeps its region.
	for _, j := range waiting {
		if j.Remaining < j.Length && !j.Interruptible {
			place(j, j.Region, ByContinued)
		}
	}

	// Phase 2: a job with no slack left runs in its current (else its
	// origin) region or, if migratable and that one is full, the first
	// region by name with a free slot. If none is free it waits.
	for _, j := range waiting {
		if _, placed := run[j]; placed || j.Deadline()-hour > j.Remaining {
			continue
		}
		region := cmp.Or(j.Region, j.Origin)
		if free[region] <= 0 && j.Migratable {
			for _, r := range f.regions {
				if free[r] > 0 {
					region = r
					break
				}
			}
		}
		if free[region] > 0 {
			place(j, region, ByDeadline)
		}
	}

	// Phase 3: the policy places what is left, offered in submission
	// order or, with a fair queue, in its order.
	var eligible []*JobInfo
	for _, j := range waiting {
		if _, placed := run[j]; !placed {
			eligible = append(eligible, j)
		}
	}
	if f.fq != nil && len(eligible) > 1 {
		names := make([]string, len(eligible))
		for i, j := range eligible {
			names[i] = j.Tenant
		}
		ordered := make([]*JobInfo, len(eligible))
		for k, i := range f.fq.Order(names) {
			ordered[k] = eligible[i]
		}
		eligible = ordered
	}
	tick := &Tick{Hour: hour}
	for _, r := range f.regions {
		tick.traces = append(tick.traces, f.set.MustGet(r))
		tick.CI = append(tick.CI, f.ci(r, hour))
		tick.Free = append(tick.Free, free[r])
	}
	tick.views = []JobView{} // set even when empty: the Tick reads its jobs from it
	for _, j := range eligible {
		tick.views = append(tick.views, JobView{f.index(j.Origin), j.Remaining, j.Deadline() - hour, j.Interruptible, j.Migratable})
	}
	for _, p := range f.policy.Plan(tick) {
		if p.Job < 0 || p.Job >= len(eligible) || p.Region < 0 || p.Region >= len(f.regions) {
			return fmt.Errorf("sched: policy %s placed job #%d in region #%d: no such job or region", f.policy.Name(), p.Job, p.Region)
		}
		j, region := eligible[p.Job], f.regions[p.Region]
		if _, placed := run[j]; placed || (!j.Migratable && region != j.Origin) || free[region] <= 0 {
			return fmt.Errorf("sched: policy %s placed job %d in %s: placed twice, pinned elsewhere or region full", f.policy.Name(), j.ID, region)
		}
		place(j, region, ByPolicy)
	}

	// Phase 4: every waiting job either runs its hour or waits it.
	for _, j := range waiting {
		region, runs := run[j]
		if !runs {
			j.WaitHours++
			continue
		}
		if j.Region != "" && j.Region != region {
			j.Migrations++
		}
		j.Region, j.Running = region, true
		j.Remaining--
		j.Emissions += f.ci(region, hour)
		f.slotHours++
		if f.fq != nil {
			f.fq.Charge(j.Tenant)
		}
		if f.OnPlace != nil {
			f.OnPlace(Placed{hour, j.ID, f.index(region), f.index(j.Origin), j.Tenant, f.ci(region, hour), f.ci(j.Origin, hour), by[j]})
		}
		if j.Remaining == 0 {
			j.Completed, j.CompletedAt = true, hour+1
		}
	}
	f.hour++
	return nil
}

// view is a job as read at the current hour: a completed job missed its
// deadline if it finished after it, any other job once the deadline is
// at or before the current hour.
func (f *refFleet) view(j *JobInfo) JobInfo {
	v := *j
	v.MissedDeadline = v.Deadline() <= f.hour
	if v.Completed {
		v.MissedDeadline = v.CompletedAt > v.Deadline()
	}
	return v
}

// Lookup returns the live view of a submitted job.
func (f *refFleet) Lookup(id int) (JobInfo, bool) {
	if j := f.byID[id]; j != nil {
		return f.view(j), true
	}
	return JobInfo{}, false
}

// Snapshot is every job's outcome in submission order, with Stats'
// totals over the whole horizon.
func (f *refFleet) Snapshot() Result {
	all := f.all()
	res := Result{
		Policy: f.policy.Name(), TotalEmissions: all.Emissions, Completed: all.Completed, Missed: all.Missed,
		SlotHoursUsed: f.slotHours, SlotHoursTotal: float64(f.totalSlots * f.horizon),
	}
	var wait float64
	for _, j := range f.jobs {
		v := f.view(j)
		res.Outcomes = append(res.Outcomes, Outcome{v.Job, v.Completed, v.CompletedAt, v.MissedDeadline, v.Emissions, v.WaitHours, v.Migrations})
		if v.Completed {
			wait += float64(v.WaitHours)
		}
	}
	if res.Completed > 0 {
		res.MeanWaitHours = wait / float64(res.Completed)
	}
	return res
}

// tally folds every job's view into one TenantStat per key, in
// submission order.
func (f *refFleet) tally(key func(Job) string) map[string]TenantStat {
	out := map[string]TenantStat{}
	for _, j := range f.jobs {
		v := f.view(j)
		ts := out[key(v.Job)]
		ts.Submitted++
		ts.SlotHours += v.Length - v.Remaining
		ts.Emissions += v.Emissions
		switch {
		case v.Completed:
			ts.Completed++
		case v.Running:
			ts.Unresolved++
			ts.Running++
		default:
			ts.Unresolved++
			ts.Queued++
		}
		if v.MissedDeadline {
			ts.Missed++
		}
		out[key(v.Job)] = ts
	}
	return out
}

// TenantStats aggregates the jobs per (normalized) tenant.
func (f *refFleet) TenantStats() map[string]TenantStat {
	return f.tally(func(j Job) string { return tenant.Normalize(j.Tenant) })
}

// all is the tally of every job under one key.
func (f *refFleet) all() TenantStat { return f.tally(func(Job) string { return "" })[""] }

// Stats aggregates all jobs.
func (f *refFleet) Stats() FleetStats {
	all := f.all()
	return FleetStats{
		f.hour, f.horizon, all.Submitted, all.Completed, all.Missed, all.Running, all.Queued, all.Unresolved,
		all.Emissions, f.slotHours, float64(f.totalSlots * f.hour),
	}
}
