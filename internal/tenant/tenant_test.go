package tenant

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"
)

func mustConfig(t *testing.T, specs ...Spec) *Config {
	t.Helper()
	cfg, err := NewConfig(specs)
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

func TestParseConfig(t *testing.T) {
	cfg, err := ParseConfig([]byte(`{"tenants": [
		{"name": "web", "class": "interactive", "weight": 3, "quota_jobs_per_hour": 10},
		{"name": "etl", "rate_per_sec": 2.5, "burst": 8},
		{"name": "spot", "class": "scavenger"},
		{"name": "*", "quota_jobs_per_hour": 5}
	]}`))
	if err != nil {
		t.Fatal(err)
	}
	if sp, known := cfg.Lookup("web"); !known || sp.Class != Interactive || sp.Weight != 3 {
		t.Fatalf("web spec: %+v known=%v", sp, known)
	}
	if sp, known := cfg.Lookup("etl"); !known || sp.Class != Batch || sp.Weight != 1 {
		t.Fatalf("etl defaults: %+v known=%v", sp, known)
	}
	// Unknown names fall back to the catch-all with the asked-for name.
	if sp, known := cfg.Lookup("stranger"); known || sp.QuotaJobsPerHour != 5 || sp.Name != "stranger" {
		t.Fatalf("catch-all: %+v known=%v", sp, known)
	}
	// The empty tenant normalizes to "default".
	if sp, _ := cfg.Lookup(""); sp.Name != DefaultName {
		t.Fatalf("empty tenant resolved to %q", sp.Name)
	}
	if got := cfg.Names(); !reflect.DeepEqual(got, []string{"etl", "spot", "web"}) {
		t.Fatalf("Names() = %v", got)
	}

	// A bare array works too.
	if _, err := ParseConfig([]byte(`[{"name": "a"}]`)); err != nil {
		t.Fatalf("bare array: %v", err)
	}

	bad := map[string]string{
		"empty":          `{"tenants": []}`,
		"no name":        `[{"weight": 2}]`,
		"hostile name":   `[{"name": "../../etc"}]`,
		"overlong name":  `[{"name": "` + strings.Repeat("x", MaxNameLen+1) + `"}]`,
		"duplicate":      `[{"name": "a"}, {"name": "a"}]`,
		"negative quota": `[{"name": "a", "quota_jobs_per_hour": -1}]`,
		"negative rate":  `[{"name": "a", "rate_per_sec": -0.5}]`,
		"unknown class":  `[{"name": "a", "class": "platinum"}]`,
		"negative wt":    `[{"name": "a", "weight": -2}]`,
		"not json":       `tenants: [a]`,
	}
	for what, doc := range bad {
		if _, err := ParseConfig([]byte(doc)); err == nil {
			t.Errorf("%s accepted: %s", what, doc)
		}
	}
	// Zero weight is "unset", not hostile: it defaults to 1.
	cfg, err = ParseConfig([]byte(`[{"name": "z", "weight": 0}]`))
	if err != nil {
		t.Fatal(err)
	}
	if sp, _ := cfg.Lookup("z"); sp.Weight != 1 {
		t.Fatalf("zero weight defaulted to %d, want 1", sp.Weight)
	}
}

func TestFingerprintCanonical(t *testing.T) {
	a := mustConfig(t, Spec{Name: "x", Class: Interactive, Weight: 2}, Spec{Name: "y"})
	b := mustConfig(t, Spec{Name: "y"}, Spec{Name: "x", Class: Interactive, Weight: 2})
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatalf("order-sensitive fingerprint: %q vs %q", a.Fingerprint(), b.Fingerprint())
	}
	c := mustConfig(t, Spec{Name: "x", Class: Interactive, Weight: 3}, Spec{Name: "y"})
	if a.Fingerprint() == c.Fingerprint() {
		t.Fatal("weight change did not move the fingerprint")
	}
	// Admission limits are not scheduling state.
	d := mustConfig(t, Spec{Name: "x", Class: Interactive, Weight: 2, QuotaJobsPerHour: 9}, Spec{Name: "y"})
	if a.Fingerprint() != d.Fingerprint() {
		t.Fatal("quota change moved the fingerprint")
	}
}

func TestGateQuota(t *testing.T) {
	cfg := mustConfig(t, Spec{Name: "a", QuotaJobsPerHour: 5}, Spec{Name: "b"})
	g := NewGate(cfg, nil)

	if err := g.Check("a", 5, 0); err != nil {
		t.Fatal(err)
	}
	g.Commit("a", 5, 0)
	if err := g.Check("a", 1, 0); err == nil {
		t.Fatal("6th job at hour 0 admitted past quota 5")
	}
	// Unlimited tenants never hit the quota path.
	if err := g.Check("b", 1000, 0); err != nil {
		t.Fatal(err)
	}
	// The window resets when the hour moves.
	if err := g.Check("a", 5, 1); err != nil {
		t.Fatal(err)
	}
	g.Commit("a", 3, 1)
	admitted := func(name string, hour int) int {
		if hc := g.hours[name]; hc != nil && hc.hour == hour {
			return hc.n
		}
		return 0
	}
	if got := admitted("a", 1); got != 3 {
		t.Fatalf("Admitted(a,1) = %d", got)
	}
	if got := admitted("a", 0); got != 0 {
		t.Fatalf("stale hour count survived: %d", got)
	}

	// Reset (the recovery path) seeds the window.
	g.Reset(7, map[string]int{"a": 4})
	if err := g.Check("a", 2, 7); err == nil {
		t.Fatal("reset count ignored")
	}
	if err := g.Check("a", 1, 7); err != nil {
		t.Fatal(err)
	}
}

func TestGateRate(t *testing.T) {
	cfg := mustConfig(t, Spec{Name: "a", RatePerSec: 2, Burst: 4})
	now := time.Unix(1000, 0)
	g := NewGate(cfg, func() time.Time { return now })

	// Burst drains, then refills at 2/s.
	if err := g.Check("a", 4, 0); err != nil {
		t.Fatal(err)
	}
	g.Commit("a", 4, 0)
	if err := g.Check("a", 1, 0); err == nil {
		t.Fatal("empty bucket admitted")
	}
	now = now.Add(500 * time.Millisecond) // +1 token
	if err := g.Check("a", 1, 0); err != nil {
		t.Fatal(err)
	}
	if err := g.Check("a", 2, 0); err == nil {
		t.Fatal("2 jobs on 1 token admitted")
	}
	now = now.Add(time.Hour) // refill caps at burst
	if err := g.Check("a", 5, 0); err == nil {
		t.Fatal("refill exceeded burst")
	}
	if err := g.Check("a", 4, 0); err != nil {
		t.Fatal(err)
	}
}

// TestGateQuotaProperty: under a random admission stream, the admitted
// count per (tenant, hour) never exceeds the quota — the admission half
// of the tenancy invariants.
func TestGateQuotaProperty(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		quotas := map[string]int{"a": 1 + rng.Intn(5), "b": 1 + rng.Intn(10), "c": 0}
		cfg := mustConfig(t,
			Spec{Name: "a", QuotaJobsPerHour: quotas["a"]},
			Spec{Name: "b", QuotaJobsPerHour: quotas["b"]},
			Spec{Name: "c"},
		)
		g := NewGate(cfg, nil)
		admitted := map[string]map[int]int{}
		for hour := 0; hour < 20; hour++ {
			for try := 0; try < 30; try++ {
				name := []string{"a", "b", "c"}[rng.Intn(3)]
				n := 1 + rng.Intn(3)
				if g.Check(name, n, hour) != nil {
					continue
				}
				g.Commit(name, n, hour)
				if admitted[name] == nil {
					admitted[name] = map[int]int{}
				}
				admitted[name][hour] += n
			}
		}
		for name, byHour := range admitted {
			q := quotas[name]
			if q == 0 {
				continue
			}
			for hour, n := range byHour {
				if n > q {
					t.Fatalf("seed %d: tenant %s admitted %d > quota %d at hour %d", seed, name, n, q, hour)
				}
			}
		}
	}
}

func TestFairQueueOrder(t *testing.T) {
	cfg := mustConfig(t,
		Spec{Name: "web", Class: Interactive}, // weight 100
		Spec{Name: "etl", Class: Batch},       // weight 10
		Spec{Name: "spot", Class: Scavenger},  // weight 1
	)
	q := NewFairQueue(cfg)

	// Fresh deficits: the interactive tenant leads, and same-tenant
	// entries keep submission order.
	names := []string{"spot", "web", "etl", "web", "spot"}
	perm := q.Order(names)
	if names[perm[0]] != "web" || names[perm[1]] != "web" {
		t.Fatalf("interactive tenant did not lead: %v", perm)
	}
	if perm[0] != 1 || perm[1] != 3 {
		t.Fatalf("intra-tenant order broken: %v", perm)
	}

	// Determinism: same inputs on equal state, same permutation.
	q2 := NewFairQueue(cfg)
	q2.Order(names)
	p1 := q.Order(names)
	p2 := q2.Order(names)
	if !reflect.DeepEqual(p1, p2) {
		t.Fatalf("nondeterministic order: %v vs %v", p1, p2)
	}
}

// TestFairQueueConverges: under saturation (1 slot/hour), long-run
// service shares approach the weight ratio, and the scavenger is never
// starved outright.
func TestFairQueueConverges(t *testing.T) {
	cfg := mustConfig(t,
		Spec{Name: "web", Class: Interactive},
		Spec{Name: "spot", Class: Scavenger},
	)
	q := NewFairQueue(cfg)
	served := map[string]int{}
	names := []string{"web", "web", "web", "spot", "spot"} // always backlogged
	const hours = 1010
	for h := 0; h < hours; h++ {
		perm := q.Order(names)
		first := Normalize(names[perm[0]])
		served[first]++
		q.Charge(first) // one slot per hour
	}
	if served["spot"] == 0 {
		t.Fatal("scavenger starved under interactive saturation")
	}
	// Weight ratio 100:1 → spot should get about 1% of the slots.
	if served["spot"] < hours/200 || served["spot"] > hours/20 {
		t.Fatalf("scavenger share %d/%d far from weight share", served["spot"], hours)
	}
}

func TestFairQueueSnapshotRestore(t *testing.T) {
	cfg := mustConfig(t, Spec{Name: "a"}, Spec{Name: "b", Class: Interactive})
	q := NewFairQueue(cfg)
	q.Order([]string{"a", "b", "a"})
	q.Charge("a")
	q.Charge("b")
	q.Charge("b")
	vt, names, passes := q.Snapshot()

	r := NewFairQueue(cfg)
	if err := r.Restore(vt, names, passes); err != nil {
		t.Fatal(err)
	}
	v2, n2, p2 := r.Snapshot()
	if v2 != vt || !reflect.DeepEqual(names, n2) || !reflect.DeepEqual(passes, p2) {
		t.Fatalf("snapshot round trip: %d/%v/%v vs %d/%v/%v", vt, names, passes, v2, n2, p2)
	}
	// The restored queue orders identically.
	probe := []string{"a", "b", "b", "a"}
	if !reflect.DeepEqual(q.Order(probe), r.Order(probe)) {
		t.Fatal("restored queue orders differently")
	}

	if err := r.Restore(0, []string{"x"}, nil); err == nil {
		t.Fatal("mismatched restore lengths accepted")
	}
	if err := r.Restore(0, []string{"bad name!"}, []int64{1}); err == nil {
		t.Fatal("hostile restored name accepted")
	}
	if err := r.Restore(-1, nil, nil); err == nil {
		t.Fatal("negative vtime accepted")
	}
}
