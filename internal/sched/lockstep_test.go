package sched

import (
	"bytes"
	"cmp"
	"math"
	"math/rand/v2"
	"reflect"
	"slices"
	"strings"
	"testing"

	"carbonshift/internal/tenant"
	"carbonshift/internal/trace"
)

// submission is how a case hands its job stream to the fleets.
type submission uint8

const (
	upFront   submission = iota // every job before the first Step
	atArrival                   // each hour's arrivals just before that hour's Step, the schedd path
	shuffled                    // up front, shuffled within windows of 200 jobs: some not yet arrived sit between active ones
)

// stepper is what the driver feeds and steps: refFleet and Fleet.
type stepper interface {
	Submit(...Job) error
	Step() error
}

// diffCase is one differential check of Fleet against the naive refFleet:
// a world and a job stream, the policies to run it under, and how the
// fleets are fed and read. check steps the two in lockstep and compares
// everything both report: Stats every hour; Lookup and Has of every job,
// and TenantStats, every `every` hours and at every block freeze; and at
// the end every Placed field, the final Snapshot (and Run's, with
// matchRun) and the scheduling invariants on both placement logs. A hop
// case also finishes a fleet that never hopped and holds the two final
// images byte-equal.
type diffCase struct {
	name     string // subtest name, "%s" standing for the policy's; "" runs in the calling test
	set      *trace.Set
	clusters []Cluster
	jobs     []Job
	horizon  int
	policies []Policy
	tenants  *tenant.Config // the fair queue's config; nil runs tenancy off
	submit   submission
	hop      int  // the hour the fleet is marshalled and restored into a fresh one; 0 never
	every    int  // hours between reads of every job, at least 1
	freezes  bool // blocks must freeze both before and after the hop
	matchRun bool // the final Snapshot must equal Run's too
	// build is NewFleet, or a constructor like it.
	build func(*trace.Set, []Cluster, Policy, int) (*Fleet, error)
}

// wideCase is a case over mkWideSet's world, with spec's jobs from every
// region, their lengths capped at maxLen (0: uncapped), under every
// policy as subtests named after it, read every hour.
func wideCase(t *testing.T, horizon, regions int, spec WorkloadSpec, maxLen int) diffCase {
	set, cl, origins := mkWideSet(t, horizon, regions)
	spec.Origins = origins
	jobs, err := GenerateJobs(spec)
	if err != nil {
		t.Fatal(err)
	}
	for i := range jobs {
		jobs[i].Length = min(jobs[i].Length, cmp.Or(maxLen, jobs[i].Length))
	}
	return diffCase{name: "%s", set: set, clusters: cl, jobs: jobs, horizon: horizon, policies: allPolicies(), every: 1, build: NewFleet}
}

// run checks the case under each of its policies, as parallel subtests
// when it has a name.
func (c diffCase) run(t *testing.T) {
	for _, p := range c.policies {
		if c.name != "" {
			t.Run(strings.Replace(c.name, "%s", p.Name(), 1), func(t *testing.T) { t.Parallel(); c.check(t, p) })
		} else {
			c.check(t, p)
		}
	}
}

// check runs the case under one policy.
func (c diffCase) check(t *testing.T, p Policy) {
	fatalf := func(format string, args ...any) { t.Helper(); t.Fatalf(p.Name()+": "+format, args...) }
	must := func(err error) {
		t.Helper()
		if err != nil {
			fatalf("%v", err)
		}
	}
	jobs := slices.Clone(c.jobs)
	if c.submit == shuffled {
		r := rand.New(rand.NewPCG(21, 0))
		for w := 0; w < len(jobs); w += 200 {
			win := jobs[w:min(w+200, len(jobs))]
			r.Shuffle(len(win), func(i, k int) { win[i], win[k] = win[k], win[i] })
		}
	}
	var logs [3][]Placed // the reference's, the fleet's, and the never-hopped fleet's
	ref, err := newRefFleet(c.set, c.clusters, p, c.horizon)
	must(err)
	ref.OnPlace = func(pl Placed) { logs[0] = append(logs[0], pl) }
	if c.tenants != nil {
		ref.SetFairQueue(tenant.NewFairQueue(c.tenants))
	}
	newFleet := func(log *[]Placed) *Fleet {
		f, err := c.build(c.set, c.clusters, p, c.horizon)
		must(err)
		if c.tenants != nil {
			f.SetFairQueue(tenant.NewFairQueue(c.tenants))
		}
		f.OnPlace = func(pl Placed) { *log = append(*log, pl) }
		return f
	}
	fleets := []*Fleet{newFleet(&logs[1])} // the one read; a hop case adds one that never hops
	if c.hop > 0 {
		fleets = append(fleets, newFleet(&logs[2]))
	}
	image := func(f *Fleet) []byte { img, err := f.Marshal(); must(err); return img }
	each := func(do func(stepper) error) {
		t.Helper()
		must(do(ref))
		for _, f := range fleets {
			must(do(f))
		}
	}
	next := 0
	feed := func() {
		k := next
		for k < len(jobs) && (c.submit != atArrival || jobs[k].Arrival == ref.Hour()) {
			k++
		}
		each(func(f stepper) error { return f.Submit(jobs[next:k]...) })
		next = k
	}
	read := func(everyJob bool) {
		t.Helper()
		f := fleets[0]
		// TotalEmissions is summed in another order (documented): within
		// 1e-9 relative, which catches a total scaled by 1+1e-7.
		a, b := ref.Stats(), f.Stats()
		e := a.TotalEmissions
		if a.TotalEmissions = b.TotalEmissions; a != b || math.Abs(e-b.TotalEmissions) > 1e-9*(1+math.Abs(e)) {
			fatalf("hour %d: stats diverge:\nref:   %+v (emissions %v)\nfleet: %+v", a.Hour, a, e, b)
		}
		if !everyJob {
			return
		}
		for _, j := range jobs {
			ja, oka := ref.Lookup(j.ID)
			jb, okb := f.Lookup(j.ID)
			if oka != okb || ja != jb || okb != f.Has(j.ID) {
				fatalf("hour %d: lookup(%d) diverges:\nref:   %+v\nfleet: %+v", a.Hour, j.ID, ja, jb)
			}
		}
		if ta, tb := ref.TenantStats(), f.TenantStats(); !reflect.DeepEqual(ta, tb) {
			fatalf("hour %d: tenant stats diverge:\nref:   %+v\nfleet: %+v", a.Hour, ta, tb)
		}
	}

	feed()
	read(true)
	frozenAtHop := -1
	for !ref.Done() {
		if c.hop > 0 && ref.Hour() == c.hop {
			frozenAtHop = frozenBlocks(fleets[0])
			img := image(fleets[0])
			fleets[0] = newFleet(&logs[1])
			must(fleets[0].Unmarshal(img))
			if got := frozenBlocks(fleets[0]); got != frozenAtHop {
				fatalf("hour %d: %d blocks frozen before Marshal, %d after Unmarshal", c.hop, frozenAtHop, got)
			}
			read(true)
		}
		feed()
		frozen := frozenBlocks(fleets[0])
		each(stepper.Step)
		read(frozenBlocks(fleets[0]) > frozen || ref.Hour()%c.every == 0)
	}

	if next != len(jobs) {
		fatalf("only %d/%d jobs submitted", next, len(jobs))
	}
	want := ref.Snapshot()
	checkInvariants(t, c, logs[0], want)
	checkInvariants(t, c, logs[1], fleets[0].Snapshot())
	for i, f := range fleets {
		if !reflect.DeepEqual(f.Snapshot(), want) || !slices.Equal(logs[i+1], logs[0]) {
			fatalf("fleet %d: the final snapshot or the %d placements diverge from the reference's %d", i, len(logs[i+1]), len(logs[0]))
		}
	}
	if c.matchRun {
		if res, err := Run(c.set, c.clusters, c.jobs, p, c.horizon); err != nil || !reflect.DeepEqual(res, want) {
			fatalf("Run's result differs from the reference's (err %v)", err)
		}
	}
	if c.hop > 0 && !bytes.Equal(image(fleets[0]), image(fleets[1])) {
		fatalf("the restored fleet's final image differs from the uninterrupted run's")
	}
	if final := frozenBlocks(fleets[0]); c.freezes && (frozenAtHop < 1 || final < 2 || final == frozenAtHop) {
		fatalf("%d blocks frozen at the hop and %d at the end: the freeze went untested on one side of it", frozenAtHop, final)
	}
}
