package sched

import (
	"fmt"
	"sort"

	"carbonshift/internal/tenant"
	"carbonshift/internal/trace"
)

// Fleet is the serial reference scheduler: the hour-stepped world in its
// plainest form — one slice of per-job state, rescanned in submission
// order in every phase of Step, no arrival buckets, no locks, no incremental
// counters. It was the production core until sched.Run moved onto
// ShardedFleet and lives on here only as the model the differential
// tests (TestShardedFleetEquivalence, TestSchedulingInvariants,
// TestTenancyInvariants, TestJobHourBounds, TestFleetMatchesRun) compare
// ShardedFleet and Run against. Its method bodies are the ones those
// tests were written against; do not optimise them, and do not edit
// them in a change that also edits ShardedFleet's scheduling logic. The
// one edit since is the policy boundary: policies plan over region
// indices and eligible-list positions, so Step's phase 3 hands its
// name-keyed state to plan, which translates it to a Tick and each
// Placement back, and it keeps its own fairOrder over states.
// TestPlacementGolden, recorded before that edit, pins the placements
// both fleets must keep.
//
// A Fleet is not safe for concurrent use.
type Fleet struct {
	set     *trace.Set
	policy  Policy
	horizon int

	slots       map[string]int
	regionsList []string
	totalSlots  int

	hour          int
	states        []*state
	byID          map[int]*state
	free          map[string]int
	slotHoursUsed float64
	completed     int

	// fq, when non-nil, reorders each hour's policy-eligible list
	// into weighted-fair (deficit round robin) order and is charged
	// one unit per executed job-hour.
	fq *tenant.FairQueue

	// OnPlace, when non-nil, observes every executed job-hour in
	// deterministic submission order: it is called once per job that
	// runs during a Step, after the hour's placements are final.
	OnPlace func(hour, jobID int, region string)

	// OnPlaceDetail, when non-nil, additionally observes the job's
	// origin region and tenant — the hook the metrics layer uses to
	// attribute carbon (saved versus a run-at-origin counterfactual,
	// and per tenant). Fired immediately after OnPlace, in the same
	// deterministic order.
	OnPlaceDetail func(hour, jobID int, region, origin, tenantName string)
}

// state is the mutable per-job bookkeeping.
type state struct {
	Job
	progress   int
	region     string // current placement ("" before first run)
	ranLastHr  bool
	done       bool
	doneAt     int
	emissions  float64
	waitHours  int
	migrations int
}

func (st *state) preferredRegion() string {
	if st.region != "" {
		return st.region
	}
	return st.Origin
}

// NewFleet validates the world and returns an empty fleet at hour zero.
func NewFleet(set *trace.Set, clusters []Cluster, policy Policy, horizon int) (*Fleet, error) {
	if policy == nil {
		return nil, fmt.Errorf("sched: nil policy")
	}
	if horizon < 1 || horizon > set.Len() {
		return nil, fmt.Errorf("sched: horizon %d outside trace of %d hours", horizon, set.Len())
	}
	if len(clusters) == 0 {
		return nil, fmt.Errorf("sched: no clusters")
	}
	f := &Fleet{
		set:     set,
		policy:  policy,
		horizon: horizon,
		slots:   make(map[string]int, len(clusters)),
		byID:    make(map[int]*state),
		free:    make(map[string]int, len(clusters)),
	}
	for _, c := range clusters {
		if c.Slots < 1 {
			return nil, fmt.Errorf("sched: cluster %s has %d slots", c.Region, c.Slots)
		}
		if _, ok := set.Get(c.Region); !ok {
			return nil, fmt.Errorf("sched: cluster region %q not in trace set", c.Region)
		}
		if _, dup := f.slots[c.Region]; dup {
			return nil, fmt.Errorf("sched: duplicate cluster %s", c.Region)
		}
		f.slots[c.Region] = c.Slots
		f.regionsList = append(f.regionsList, c.Region)
		f.totalSlots += c.Slots
	}
	sort.Strings(f.regionsList)
	return f, nil
}

// SetFairQueue installs the tenant fair-dequeue engine. It must be
// set before the first Step.
func (f *Fleet) SetFairQueue(q *tenant.FairQueue) { f.fq = q }

// Hour returns the next hour the fleet will simulate.
func (f *Fleet) Hour() int { return f.hour }

// Done reports whether the fleet has simulated its whole horizon.
func (f *Fleet) Done() bool { return f.hour >= f.horizon }

// Jobs returns the number of jobs submitted so far.
func (f *Fleet) Jobs() int { return len(f.states) }

// Submit adds jobs to the fleet. The call is atomic: on any validation
// error no job from the batch is admitted. Jobs may arrive at or after
// the fleet's current hour; submitting into the simulated past is an
// error.
func (f *Fleet) Submit(jobs ...Job) error {
	batch := make(map[int]struct{}, len(jobs))
	for _, j := range jobs {
		if err := j.Validate(); err != nil {
			return err
		}
		if _, ok := f.slots[j.Origin]; !ok {
			return fmt.Errorf("sched: job %d origin %q has no cluster", j.ID, j.Origin)
		}
		if _, dup := f.byID[j.ID]; dup {
			return fmt.Errorf("sched: duplicate job id %d", j.ID)
		}
		if _, dup := batch[j.ID]; dup {
			return fmt.Errorf("sched: duplicate job id %d", j.ID)
		}
		if j.Arrival < f.hour {
			return fmt.Errorf("sched: job %d arrives at hour %d, before current hour %d", j.ID, j.Arrival, f.hour)
		}
		batch[j.ID] = struct{}{}
	}
	for _, j := range jobs {
		st := &state{Job: j}
		f.states = append(f.states, st)
		f.byID[j.ID] = st
	}
	return nil
}

// Step simulates the fleet's current hour and advances to the next. It
// errors past the horizon and on a misbehaving policy (unknown job or
// region, double placement, pinned migration, oversubscription).
func (f *Fleet) Step() error {
	if f.hour >= f.horizon {
		return fmt.Errorf("sched: horizon %d exhausted", f.horizon)
	}
	hour := f.hour
	ci := func(region string, h int) float64 { return f.set.MustGet(region).At(h) }
	for r, s := range f.slots {
		f.free[r] = s
	}
	for _, st := range f.states {
		st.ranLastHr = false
	}
	runNow := make(map[int]string) // job id -> region

	// Phase 1: forced continuations — a started non-interruptible
	// job occupies its slot until done.
	for _, st := range f.states {
		if st.done || st.progress == 0 || st.Interruptible {
			continue
		}
		runNow[st.ID] = st.region
		f.free[st.region]--
	}

	// Phase 2: deadline forcing — a job whose remaining slack is
	// zero must run every hour from now on. Try its current/origin
	// region, then (if migratable) anything with space.
	for _, st := range f.states {
		if st.done || st.Arrival > hour {
			continue
		}
		if _, already := runNow[st.ID]; already {
			continue
		}
		remaining := st.Length - st.progress
		if st.Deadline()-hour > remaining {
			continue // still has slack
		}
		region := st.preferredRegion()
		if f.free[region] <= 0 && st.Migratable {
			for _, r := range f.regionsList {
				if f.free[r] > 0 {
					region = r
					break
				}
			}
		}
		if f.free[region] > 0 {
			runNow[st.ID] = region
			f.free[region]--
		}
		// If nothing is free the job misses this hour — and
		// likely its deadline. That is the contention signal the
		// simulator exists to surface.
	}

	// Phase 3: policy placements for the flexible remainder.
	var eligible []*state
	for _, st := range f.states {
		if st.done || st.Arrival > hour {
			continue
		}
		if _, already := runNow[st.ID]; already {
			continue
		}
		eligible = append(eligible, st)
	}
	placements, err := f.plan(hour, fairOrder(f.fq, eligible))
	if err != nil {
		return err
	}
	for _, p := range placements {
		st, ok := f.byID[p.JobID]
		if !ok {
			return fmt.Errorf("sched: policy %s placed unknown job %d", f.policy.Name(), p.JobID)
		}
		if st.done || st.Arrival > hour {
			return fmt.Errorf("sched: policy %s placed ineligible job %d", f.policy.Name(), p.JobID)
		}
		if _, already := runNow[st.ID]; already {
			return fmt.Errorf("sched: policy %s double-placed job %d", f.policy.Name(), p.JobID)
		}
		if _, ok := f.slots[p.Region]; !ok {
			return fmt.Errorf("sched: policy %s used unknown region %q", f.policy.Name(), p.Region)
		}
		if !st.Migratable && p.Region != st.Origin {
			return fmt.Errorf("sched: policy %s migrated pinned job %d", f.policy.Name(), st.ID)
		}
		if f.free[p.Region] <= 0 {
			return fmt.Errorf("sched: policy %s oversubscribed region %s", f.policy.Name(), p.Region)
		}
		runNow[st.ID] = p.Region
		f.free[p.Region]--
	}

	// Phase 4: advance the world one hour.
	for _, st := range f.states {
		if st.done || st.Arrival > hour {
			continue
		}
		region, running := runNow[st.ID]
		if !running {
			st.waitHours++
			continue
		}
		if st.region != "" && st.region != region {
			st.migrations++
		}
		st.region = region
		st.ranLastHr = true
		st.progress++
		st.emissions += ci(region, hour)
		f.slotHoursUsed++
		if f.fq != nil {
			f.fq.Charge(st.Tenant)
		}
		if f.OnPlace != nil {
			f.OnPlace(hour, st.ID, region)
		}
		if f.OnPlaceDetail != nil {
			f.OnPlaceDetail(hour, st.ID, region, st.Origin, st.Tenant)
		}
		if st.progress == st.Length {
			st.done = true
			st.doneAt = hour + 1
			f.completed++
		}
	}
	f.hour++
	return nil
}

// Snapshot aggregates the fleet's outcomes so far into a Result, in job
// submission order. Once the fleet has stepped through its full horizon
// the result is byte-identical to what Run returns for the same inputs.
// An uncompleted job counts as missed once its deadline is at or before
// the current hour.
func (f *Fleet) Snapshot() Result {
	res := Result{
		Policy:         f.policy.Name(),
		SlotHoursUsed:  f.slotHoursUsed,
		SlotHoursTotal: float64(f.totalSlots * f.horizon),
	}
	for _, st := range f.states {
		out := Outcome{
			Job:        st.Job,
			Completed:  st.done,
			Emissions:  st.emissions,
			WaitHours:  st.waitHours,
			Migrations: st.migrations,
		}
		if st.done {
			out.CompletedAt = st.doneAt
			out.MissedDeadline = st.doneAt > st.Deadline()
			res.Completed++
		} else {
			out.MissedDeadline = st.Deadline() <= f.hour
		}
		if out.MissedDeadline {
			res.Missed++
		}
		res.TotalEmissions += st.emissions
		res.Outcomes = append(res.Outcomes, out)
	}
	if res.Completed > 0 {
		var wait float64
		for _, o := range res.Outcomes {
			if o.Completed {
				wait += float64(o.WaitHours)
			}
		}
		res.MeanWaitHours = wait / float64(res.Completed)
	}
	return res
}

// Lookup returns the live view of a submitted job.
func (f *Fleet) Lookup(id int) (JobInfo, bool) {
	st, ok := f.byID[id]
	if !ok {
		return JobInfo{}, false
	}
	info := JobInfo{
		Job:        st.Job,
		Remaining:  st.Length - st.progress,
		Region:     st.region,
		Running:    st.ranLastHr,
		Completed:  st.done,
		Emissions:  st.emissions,
		WaitHours:  st.waitHours,
		Migrations: st.migrations,
	}
	if st.done {
		info.CompletedAt = st.doneAt
		info.MissedDeadline = st.doneAt > st.Deadline()
	} else {
		info.MissedDeadline = st.Deadline() <= f.hour
	}
	return info, true
}

// Stats summarizes the fleet's current state.
func (f *Fleet) Stats() FleetStats {
	st := FleetStats{
		Hour:           f.hour,
		Horizon:        f.horizon,
		Submitted:      len(f.states),
		SlotHoursUsed:  f.slotHoursUsed,
		SlotHoursTotal: float64(f.totalSlots * f.hour),
	}
	for _, s := range f.states {
		st.TotalEmissions += s.emissions
		if s.done {
			st.Completed++
			if s.doneAt > s.Deadline() {
				st.Missed++
			}
			continue
		}
		st.Unresolved++
		if s.Deadline() <= f.hour {
			st.Missed++
		}
		if s.ranLastHr {
			st.Running++
		} else {
			st.Queued++
		}
	}
	return st
}

// fairOrder applies the fair queue's dequeue permutation to one
// hour's eligible jobs (identity when no queue is installed).
func fairOrder(q *tenant.FairQueue, eligible []*state) []*state {
	if q == nil || len(eligible) < 2 {
		return eligible
	}
	names := make([]string, len(eligible))
	for i, st := range eligible {
		names[i] = st.Tenant
	}
	perm := q.Order(names)
	out := make([]*state, len(eligible))
	for k, i := range perm {
		out[k] = eligible[i]
	}
	return out
}

// namedPlacement is a policy's Placement translated back to names.
type namedPlacement struct {
	JobID  int
	Region string
}

// plan is the one place the reference meets the policy's index space:
// it hands the policy a Tick over eligible — regions by index into
// regionsList, jobs by position — and names each placement back.
func (f *Fleet) plan(hour int, eligible []*state) ([]namedPlacement, error) {
	tick := &Tick{Hour: hour}
	regionIdx := make(map[string]int, len(f.regionsList))
	for i, r := range f.regionsList {
		regionIdx[r] = i
		tr := f.set.MustGet(r)
		tick.traces = append(tick.traces, tr)
		tick.CI = append(tick.CI, tr.At(hour))
		tick.Free = append(tick.Free, f.free[r])
	}
	for _, st := range eligible {
		tick.Eligible = append(tick.Eligible, JobView{
			Origin:          regionIdx[st.Origin],
			Remaining:       st.Length - st.progress,
			HoursToDeadline: st.Deadline() - hour,
			Interruptible:   st.Interruptible,
			Migratable:      st.Migratable,
		})
	}
	var out []namedPlacement
	for _, p := range f.policy.Plan(tick) {
		if p.Job < 0 || p.Job >= len(eligible) {
			return nil, fmt.Errorf("sched: policy %s placed unknown job #%d", f.policy.Name(), p.Job)
		}
		if p.Region < 0 || p.Region >= len(f.regionsList) {
			return nil, fmt.Errorf("sched: policy %s used unknown region #%d", f.policy.Name(), p.Region)
		}
		out = append(out, namedPlacement{eligible[p.Job].ID, f.regionsList[p.Region]})
	}
	return out, nil
}

func tenantStats(states []*state, hour int) map[string]TenantStat {
	out := make(map[string]TenantStat)
	for _, s := range states {
		name := tenant.Normalize(s.Tenant)
		ts := out[name]
		ts.Submitted++
		ts.SlotHours += s.progress
		ts.Emissions += s.emissions
		if s.done {
			ts.Completed++
			if s.doneAt > s.Deadline() {
				ts.Missed++
			}
		} else {
			ts.Unresolved++
			if s.Deadline() <= hour {
				ts.Missed++
			}
			if s.ranLastHr {
				ts.Running++
			} else {
				ts.Queued++
			}
		}
		out[name] = ts
	}
	return out
}

// TenantStats aggregates the fleet's jobs per (normalized) tenant.
func (f *Fleet) TenantStats() map[string]TenantStat {
	return tenantStats(f.states, f.hour)
}
