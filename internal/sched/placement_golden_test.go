package sched

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"carbonshift/internal/tenant"
)

// placementGoldenTenants is the benchmark's tenancy world: an interactive
// tenant, a batch tenant of weight 2, a plain batch tenant, and a
// scavenger catch-all that "adhoc" falls into.
func placementGoldenTenants(t testing.TB) *tenant.Config {
	t.Helper()
	cfg, err := tenant.NewConfig([]tenant.Spec{
		{Name: "web", Class: tenant.Interactive},
		{Name: "etl", Class: tenant.Batch, Weight: 2},
		{Name: "ml", Class: tenant.Batch},
		{Name: tenant.CatchAll, Class: tenant.Scavenger},
	})
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

// TestPlacementGolden pins every executed job-hour and the final fleet
// image of all five policies, each with tenancy off and with the
// benchmark's four tenants, on a contended world: two slots per region,
// so deadline spill and the fair queue decide placements, and a horizon
// past ForecastGate's 504-hour history window. Each line holds the
// policy, the tenancy mode, the placement and missed-deadline counts,
// and the SHA-256 of the OnPlace log and of Marshal's bytes. A refactor
// of the policies or of Step must pass it unedited; regenerate only for
// a deliberate change of placements:
//
//	go test ./internal/sched -run TestPlacementGolden -update
func TestPlacementGolden(t *testing.T) {
	const horizon = 24 * 28
	set, wide, origins := mkWideSet(t, horizon, 6)
	cl := make([]Cluster, len(wide))
	for i, c := range wide {
		cl[i] = Cluster{Region: c.Region, Slots: 2}
	}
	jobs := genTenantJobs(rand.New(rand.NewSource(23)), 2000, horizon-60, origins, []string{"web", "etl", "ml", "adhoc"})

	var got strings.Builder
	for _, pol := range allPolicies() {
		for _, tenancy := range []bool{false, true} {
			f, err := NewShardedFleet(set, cl, pol, horizon, 0)
			if err != nil {
				t.Fatal(err)
			}
			mode := "off"
			if tenancy {
				mode = "tenants"
				f.SetFairQueue(tenant.NewFairQueue(placementGoldenTenants(t)))
			}
			log, n := sha256.New(), 0
			f.OnPlace = func(hour, jobID int, region string) {
				fmt.Fprintf(log, "%d:%d:%s\n", hour, jobID, region)
				n++
			}
			if err := f.Submit(jobs...); err != nil {
				t.Fatal(err)
			}
			driveFleet(t, f)
			img, err := f.Marshal()
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&got, "%s %s %d %d %x %x\n", pol.Name(), mode, n, f.Snapshot().Missed, log.Sum(nil), sha256.Sum256(img))
		}
	}

	golden := filepath.Join("testdata", "placements.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Fatalf("placements drifted from %s:\ngot:\n%swant:\n%s", golden, got.String(), want)
	}
}
