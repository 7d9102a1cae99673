package sched

import (
	"fmt"
	"reflect"
	"testing"
)

// TestRegionGroupEquivalence states what splitting the world into region
// groups — one independent fleet per group, the way the partitioned
// service runs it — costs the schedule. For pinned work, nothing: a
// whole-world fleet and independent per-group fleets, fed the same
// non-migratable jobs in the same order, place every job-hour alike,
// group by group, for every policy and under slot pressure. Migratable
// work is what tells them apart: the whole-world fleet moves some of it
// across a group boundary, which is the spatial flexibility a partition
// gives up.
func TestRegionGroupEquivalence(t *testing.T) {
	const horizon = 24 * 10
	set, cl, origins := mkWideSet(t, horizon, 8)
	for i := range cl {
		cl[i].Slots = 3
	}
	spec := WorkloadSpec{
		Jobs:              280,
		ArrivalSpan:       24 * 8,
		SlackHours:        24,
		InterruptibleFrac: 0.6,
		Origins:           origins,
		Seed:              17,
	}
	pinned, err := GenerateJobs(spec)
	if err != nil {
		t.Fatal(err)
	}
	spec.MigratableFrac = 0.5
	mixed, err := GenerateJobs(spec)
	if err != nil {
		t.Fatal(err)
	}

	type placeRec struct {
		hour, job int
		region    string
	}
	// run schedules the jobs whose origin inGroup admits on a fleet of
	// just those clusters, and returns its placements.
	run := func(t *testing.T, jobs []Job, policy Policy, inGroup func(region string) bool) []placeRec {
		var subCl []Cluster
		for _, c := range cl {
			if inGroup(c.Region) {
				subCl = append(subCl, c)
			}
		}
		var subJobs []Job
		for _, j := range jobs {
			if inGroup(j.Origin) {
				subJobs = append(subJobs, j)
			}
		}
		f, err := NewShardedFleet(set, subCl, policy, horizon, 0)
		if err != nil {
			t.Fatal(err)
		}
		var log []placeRec
		f.OnPlace = func(hour, jobID int, region string) {
			log = append(log, placeRec{hour, jobID, region})
		}
		if err := f.Submit(subJobs...); err != nil {
			t.Fatal(err)
		}
		driveFleet(t, f)
		return log
	}
	everywhere := func(string) bool { return true }

	for _, policy := range allPolicies() {
		for _, n := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/groups=%d", policy.Name(), n), func(t *testing.T) {
				groupOf := map[string]int{}
				for i, r := range origins {
					groupOf[r] = i % n
				}
				whole := make([][]placeRec, n)
				for _, p := range run(t, pinned, policy, everywhere) {
					whole[groupOf[p.region]] = append(whole[groupOf[p.region]], p)
				}
				for gi := 0; gi < n; gi++ {
					part := run(t, pinned, policy, func(r string) bool { return groupOf[r] == gi })
					if !reflect.DeepEqual(part, whole[gi]) {
						t.Fatalf("group %d: %d placements alone vs %d in the whole world", gi, len(part), len(whole[gi]))
					}
				}

				switch policy.(type) {
				case GreenestFirst, SpatioTemporal: // the policies that move jobs on purpose
					if n == 1 {
						return
					}
				default:
					return
				}
				origin := map[int]string{}
				for _, j := range mixed {
					origin[j.ID] = j.Origin
				}
				crossed := 0
				for _, p := range run(t, mixed, policy, everywhere) {
					if groupOf[p.region] != groupOf[origin[p.job]] {
						crossed++
					}
				}
				if crossed == 0 {
					t.Fatal("no migratable job-hour crossed a group boundary: the pinned equivalence proves nothing about partitioning")
				}
			})
		}
	}
}
