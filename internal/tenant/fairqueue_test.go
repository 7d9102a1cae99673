package tenant

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// orderMaps is FairQueue.Order as it was first written, over string-keyed
// maps: the reference the slice-based Order is held to.
func orderMaps(q *FairQueue, names []string) []uint32 {
	perm := make([]uint32, len(names))
	if len(names) == 0 {
		return perm
	}
	byTenant := make(map[string][]int)
	var tenants []string
	for i, raw := range names {
		t := Normalize(raw)
		if _, seen := byTenant[t]; !seen {
			tenants = append(tenants, t)
		}
		byTenant[t] = append(byTenant[t], i)
	}
	if len(tenants) == 1 {
		for i := range perm {
			perm[i] = uint32(i)
		}
		return perm
	}
	sort.Strings(tenants)
	proj := make(map[string]int64, len(tenants))
	next := make(map[string]int, len(tenants))
	var frontier int64
	for i, t := range tenants {
		p := q.touch(t)
		proj[t] = p
		if i == 0 || p < frontier {
			frontier = p
		}
	}
	if frontier > q.vtime {
		q.vtime = frontier
	}
	for k := range perm {
		best := ""
		var bestPass int64
		for _, t := range tenants {
			if next[t] >= len(byTenant[t]) {
				continue
			}
			if best == "" || proj[t] < bestPass {
				best, bestPass = t, proj[t]
			}
		}
		perm[k] = uint32(byTenant[best][next[best]])
		next[best]++
		proj[best] += q.stride(best)
	}
	return perm
}

// TestFairQueueOrderMatchesMapReference drives Order and orderMaps over
// random worlds — tenant names drawn from declared, catch-all and
// default ("" and "default" are one tenant) names, pass and vtime states
// restored at random — and requires the same permutation every hour and
// the same Snapshot after each hour's Charges.
func TestFairQueueOrderMatchesMapReference(t *testing.T) {
	pool := []string{"", "default", "web", "etl", "ml", "adhoc", "spot", "x"}
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		specs := []Spec{
			{Name: "web", Class: Interactive},
			{Name: "etl", Class: Batch, Weight: 1 + rng.Intn(4)},
			{Name: "spot", Class: Scavenger},
		}
		if rng.Intn(2) == 0 {
			specs = append(specs, Spec{Name: CatchAll, Class: Scavenger})
		}
		cfg := mustConfig(t, specs...)
		got, want := NewFairQueue(cfg), NewFairQueue(cfg)

		var restored []string
		var passes []int64
		for _, name := range []string{"default", "web", "etl", "ml", "adhoc"} {
			if rng.Intn(2) == 0 {
				restored = append(restored, name)
				passes = append(passes, 1+rng.Int63n(4*passScale))
			}
		}
		vtime := rng.Int63n(4 * passScale)
		for _, q := range []*FairQueue{got, want} {
			if err := q.Restore(vtime, restored, passes); err != nil {
				t.Fatal(err)
			}
		}

		for hour := 0; hour < 20; hour++ {
			names := make([]string, rng.Intn(40))
			for i := range names {
				names[i] = pool[rng.Intn(len(pool))]
			}
			p1, p2 := got.Order(names), orderMaps(want, names)
			if !reflect.DeepEqual(p1, p2) {
				t.Fatalf("seed %d hour %d: Order(%q) = %v, reference %v", seed, hour, names, p1, p2)
			}
			for _, i := range p1[:rng.Intn(len(p1)+1)] {
				got.Charge(names[i])
				want.Charge(names[i])
			}
			v1, n1, s1 := got.Snapshot()
			v2, n2, s2 := want.Snapshot()
			if v1 != v2 || !reflect.DeepEqual(n1, n2) || !reflect.DeepEqual(s1, s2) {
				t.Fatalf("seed %d hour %d: snapshot %s, reference %s", seed, hour,
					fmt.Sprint(v1, n1, s1), fmt.Sprint(v2, n2, s2))
			}
		}
	}
}

// TestFairQueuePermuteByIndexMatchesOrder holds Permute, as the fleet
// calls it — entries that are positions in the caller's list, grouped
// by an index into the caller's tenant table, where "" and "default"
// are two indices of one tenant — to Order over the same names, on two
// queues in the same state: the same order every hour, and the same
// Snapshot after each hour's Charges.
func TestFairQueuePermuteByIndexMatchesOrder(t *testing.T) {
	table := []string{"", "web", "etl", "default", "ml", "spot", "adhoc"}
	cfg := mustConfig(t,
		Spec{Name: "web", Class: Interactive},
		Spec{Name: "etl", Class: Batch, Weight: 2},
		Spec{Name: CatchAll, Class: Scavenger},
	)
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		byIndex, byName := NewFairQueue(cfg), NewFairQueue(cfg)
		for hour := 0; hour < 20; hour++ {
			// A job list of which some positions are eligible, ascending.
			tenantOf := make([]int, 60)
			for i := range tenantOf {
				tenantOf[i] = rng.Intn(len(table))
			}
			var entries []uint32
			var names []string
			for i := range tenantOf {
				if rng.Intn(3) > 0 {
					entries = append(entries, uint32(i))
					names = append(names, table[tenantOf[i]])
				}
			}
			perm := byName.Order(names)
			want := make([]uint32, len(perm))
			for k, i := range perm {
				want[k] = entries[i]
			}
			byIndex.Permute(entries, len(table), func(e uint32) int { return tenantOf[e] }, func(i int) string { return table[i] })
			if !reflect.DeepEqual(entries, want) {
				t.Fatalf("seed %d hour %d: Permute gave %v, Order %v", seed, hour, entries, want)
			}
			for _, e := range entries[:rng.Intn(len(entries)+1)] {
				byIndex.Charge(table[tenantOf[e]])
				byName.Charge(table[tenantOf[e]])
			}
			v1, n1, s1 := byIndex.Snapshot()
			v2, n2, s2 := byName.Snapshot()
			if v1 != v2 || !reflect.DeepEqual(n1, n2) || !reflect.DeepEqual(s1, s2) {
				t.Fatalf("seed %d hour %d: snapshot %s, by name %s", seed, hour,
					fmt.Sprint(v1, n1, s1), fmt.Sprint(v2, n2, s2))
			}
		}
	}
}
