package tenant

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// passScale is the virtual-time unit: one executed job-hour advances a
// tenant's pass by passScale / effectiveWeight. The scale leaves
// integer headroom for very large configured weights (validation caps
// Weight at MaxWeight) while keeping pass arithmetic exact.
const passScale = 1 << 32

// FairQueue is the weighted-fair dequeue engine the fleet applies to
// its policy-eligible job list every Step, permuting it in place
// (Permute) — deficit round robin in its virtual-time (stride)
// formulation. Each tenant carries a pass value:
// its cumulative service normalized by its effective weight (class
// multiplier × tenant weight). Every executed job-hour advances the
// serving tenant's pass by passScale/weight, and the eligible list is
// ordered least-pass-first, so long-run service shares converge to the
// weight ratio. A scavenger tenant's pass advances ~100× faster per
// served hour than an interactive tenant's, which is exactly what
// guarantees it is served ~1/100th of the time rather than never —
// the starvation-freedom property TestTenancyInvariants pins.
//
// vtime is the served frontier: the smallest pass among currently
// backlogged tenants, advanced at each Permute. A tenant first seen (or
// returning from idle below the frontier) starts at vtime + stride,
// the standard stride-scheduling join rule — so a tenant that shows up
// late cannot monopolize the fleet while it "catches up" on virtual
// time it never queued for, and on a fresh queue the highest-weight
// tenant (smallest stride) is the first served.
//
// Everything here is deterministic integer arithmetic over sorted
// names: the same (eligible list, pass state) always yields the same
// order, which is what keeps fleet-vs-reference byte-equivalence and
// crash/replication replay intact. Pass state is fleet state — the
// fleet serializes it through Snapshot/Restore in its image.
//
// A FairQueue is not safe for concurrent use; the fleet only touches
// it in the serial sections of Step and under its world lock during
// Marshal/Unmarshal.
type FairQueue struct {
	cfg     *Config
	strides map[string]int64 // resolved passScale/weight, lazily cached

	pass  map[string]int64
	vtime int64

	// Permute's scratch, kept between calls so that an hour's order
	// allocates only while the eligible list or the tenant set grows.
	members []uint32 // the entries grouped by tenant, contiguous, each group in the given order
	groupOf []int32  // the caller's tenant index -> group, -1 before its first entry
	groups  []fairGroup
	at      map[string]int // normalized tenant -> index into groups
}

// NewFairQueue builds the dequeue engine over a tenant registry (nil
// config = every tenant at the default batch weight, still fair).
func NewFairQueue(cfg *Config) *FairQueue {
	return &FairQueue{
		cfg:     cfg,
		strides: make(map[string]int64),
		pass:    make(map[string]int64),
		at:      make(map[string]int),
	}
}

// Fingerprint identifies the scheduling-relevant tenancy config for
// the fleet image's world check.
func (q *FairQueue) Fingerprint() string {
	if q == nil {
		return ""
	}
	return q.cfg.Fingerprint()
}

func (q *FairQueue) stride(name string) int64 {
	if s, ok := q.strides[name]; ok {
		return s
	}
	sp, _ := q.cfg.Lookup(name)
	s := passScale / int64(sp.effectiveWeight())
	if s < 1 {
		s = 1
	}
	q.strides[name] = s
	return s
}

// touch materializes a tenant's pass entry: first sight joins at
// vtime + stride, a return from idle below the frontier lifts to
// vtime. Returns the (possibly updated) pass.
func (q *FairQueue) touch(t string) int64 {
	p, ok := q.pass[t]
	switch {
	case !ok:
		p = q.vtime + q.stride(t)
		q.pass[t] = p
	case p < q.vtime:
		p = q.vtime
		q.pass[t] = p
	}
	return p
}

// Order returns the fair dequeue permutation of one hour's eligible
// list, given the tenant name of each entry ("" meaning default):
// perm[k] is the index into names of the k'th job to offer the policy.
// It is Permute over the positions 0..len(names)-1, each its own tenant
// index, and allocates the permutation it returns.
func (q *FairQueue) Order(names []string) (perm []uint32) {
	perm = make([]uint32, len(names))
	for i := range perm {
		perm[i] = uint32(i)
	}
	q.Permute(perm, len(names), func(e uint32) int { return int(e) }, func(i int) string { return names[i] })
	return perm
}

// Permute reorders one hour's eligible entries in place into the fair
// dequeue order: entries of the same tenant keep their relative
// (submission) order, and the tenants interleave least-pass-first. An
// entry's tenant is an index below tenants into the caller's own table,
// tenantOf(e) giving entry e's and name(i) index i's name; several
// indices may name one tenant ("" and "default" are one). A tenant's
// name is read and normalized only at its index's first entry in the
// call. New or below-frontier tenants are touched in first, then vtime
// advances to the smallest present pass; the per-job pass advancement
// used to interleave within the hour is projected only — persistent
// pass moves solely via Charge, on actual execution.
func (q *FairQueue) Permute(entries []uint32, tenants int, tenantOf func(e uint32) int, name func(i int) string) {
	n := len(entries)
	if n < 2 {
		return
	}
	if cap(q.members) < n {
		q.members = make([]uint32, n, n+n/4)
	}
	if cap(q.groupOf) < tenants {
		q.groupOf = make([]int32, tenants)
	}
	members, groupOf := q.members[:n], q.groupOf[:tenants]
	for i := range groupOf {
		groupOf[i] = -1
	}
	// Group by tenant in first-appearance order — a name lookup per
	// tenant index, a table read per entry — then lay each group's
	// entries out contiguously in members, in the given order: counts,
	// then each group's end, then a fill from the back.
	clear(q.at)
	groups := q.groups[:0]
	for _, e := range entries {
		ti := tenantOf(e)
		g := groupOf[ti]
		if g < 0 {
			t := Normalize(name(ti))
			gi, ok := q.at[t]
			if !ok {
				gi = len(groups)
				q.at[t] = gi
				groups = append(groups, fairGroup{name: t})
			}
			g = int32(gi)
			groupOf[ti] = g
		}
		groups[g].end++
	}
	q.groups = groups
	if len(groups) <= 1 {
		return
	}
	end := 0
	for i := range groups {
		end += groups[i].end
		groups[i].next, groups[i].end = end, end
	}
	for i := n - 1; i >= 0; i-- {
		g := &groups[groupOf[tenantOf(entries[i])]]
		g.next--
		members[g.next] = entries[i]
	}
	// Deterministic tie-breaking below wants a canonical tenant order.
	slices.SortFunc(groups, func(a, b fairGroup) int { return strings.Compare(a.name, b.name) })
	var frontier int64
	for i := range groups {
		g := &groups[i]
		g.pass, g.stride = q.touch(g.name), q.stride(g.name)
		if i == 0 || g.pass < frontier {
			frontier = g.pass
		}
	}
	if frontier > q.vtime {
		q.vtime = frontier
	}
	for k := range entries {
		var best *fairGroup
		for i := range groups {
			if g := &groups[i]; g.next < g.end && (best == nil || g.pass < best.pass) {
				best = g
			}
		}
		entries[k] = members[best.next]
		best.next++
		best.pass += best.stride
	}
}

// fairGroup is one tenant's share of a Permute call: its entries
// (members[next:end], the next one to offer first), and its projected
// pass.
type fairGroup struct {
	name      string
	next, end int
	pass      int64
	stride    int64
}

// Charge records one executed job-hour against the tenant — called
// from Step's advance phase for every job that ran (forced or
// policy-placed: both consumed capacity). Per-tenant increments
// commute, so that phase's submission-order iteration and any
// restore-replay agree on the final state.
func (q *FairQueue) Charge(name string) {
	t := Normalize(name)
	q.pass[t] = q.touch(t) + q.stride(t)
}

// Snapshot returns the pass state as the virtual-time frontier plus
// parallel name/value slices in sorted-name order — the deterministic
// form the fleet image encodes. (Materialized passes are always
// positive — entries join at vtime + stride ≥ 1 — so filtering zeros
// is a no-op kept as belt-and-suspenders.)
func (q *FairQueue) Snapshot() (vtime int64, names []string, passes []int64) {
	if q == nil {
		return 0, nil, nil
	}
	names = make([]string, 0, len(q.pass))
	for t, p := range q.pass {
		if p != 0 {
			names = append(names, t)
		}
	}
	sort.Strings(names)
	passes = make([]int64, len(names))
	for i, t := range names {
		passes[i] = q.pass[t]
	}
	return q.vtime, names, passes
}

// Restore replaces the pass state (the fleet Unmarshal path).
func (q *FairQueue) Restore(vtime int64, names []string, passes []int64) error {
	if len(names) != len(passes) {
		return fmt.Errorf("tenant: restore: %d names, %d passes", len(names), len(passes))
	}
	if vtime < 0 {
		return fmt.Errorf("tenant: restore: negative vtime %d", vtime)
	}
	q.vtime = vtime
	q.pass = make(map[string]int64, len(names))
	for i, t := range names {
		if !NameOK(t) || t == "" {
			return fmt.Errorf("tenant: restore: bad tenant name %q", t)
		}
		if passes[i] < 0 {
			return fmt.Errorf("tenant: restore: tenant %q negative pass %d", t, passes[i])
		}
		q.pass[t] = passes[i]
	}
	return nil
}
