package sched

import (
	"bytes"
	"encoding/hex"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"carbonshift/internal/tenant"
)

var update = flag.Bool("update", false, "rewrite golden files")

// stateJobs is a small deterministic mix covering every flag
// combination: pinned, migratable, interruptible, and a future arrival.
func stateJobs() []Job {
	return []Job{
		{ID: 3, Origin: "DIRTY", Arrival: 0, Length: 4, Slack: 24, Interruptible: true, Migratable: true},
		{ID: 1, Origin: "CLEAN", Arrival: 0, Length: 2, Slack: 0},
		{ID: 8, Origin: "DIRTY", Arrival: 2, Length: 6, Slack: 48, Interruptible: true},
		{ID: 5, Origin: "DIRTY", Arrival: 1, Length: 1, Slack: 2, Migratable: true},
		{ID: 9, Origin: "CLEAN", Arrival: 30, Length: 3, Slack: 12, Interruptible: true, Migratable: true},
	}
}

// stateJobsTenants is stateJobs with tenant tags: two named tenants of
// different classes plus untagged (default-tenant) jobs.
func stateJobsTenants() []Job {
	jobs := stateJobs()
	jobs[0].Tenant = "web"
	jobs[2].Tenant = "spot"
	jobs[3].Tenant = "web"
	return jobs
}

// goldenTenantConfig is the fixed tenancy world the v2 golden pins.
func goldenTenantConfig(t testing.TB) *tenant.Config {
	t.Helper()
	cfg, err := tenant.NewConfig([]tenant.Spec{
		{Name: "web", Class: tenant.Interactive},
		{Name: "spot", Class: tenant.Scavenger},
	})
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

// TestStateRoundTripMidRun: marshal a fleet mid-run, restore into a
// fresh fleet, run both to the horizon — placements, Result, and the
// final serialized state must be byte-identical. The subtests vary
// NewShardedFleet's deprecated final argument on either side of the
// restore, which must stay a no-op until it is removed.
func TestStateRoundTripMidRun(t *testing.T) {
	const horizon, cut = 24 * 8, 50
	set := mkSet(t, horizon)
	jobs, err := GenerateJobs(WorkloadSpec{
		Jobs: 60, ArrivalSpan: horizon - 48, SlackHours: 36,
		InterruptibleFrac: 0.6, MigratableFrac: 0.5,
		Origins: []string{"CLEAN", "DIRTY"}, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	policy := SpatioTemporal{Percentile: 40, Window: 48}

	build := func(shards int) *ShardedFleet {
		f, err := NewShardedFleet(set, clusters(6), policy, horizon, shards)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}

	run := func(f *ShardedFleet, to int) {
		t.Helper()
		for i := 0; i < to; i++ {
			if err := f.Step(); err != nil {
				t.Fatal(err)
			}
		}
	}

	for _, from := range []int{1, 4} {
		for _, to := range []int{1, 4} {
			t.Run(fmt.Sprintf("sharded%d->sharded%d", from, to), func(t *testing.T) {
				ref := build(from)
				if err := ref.Submit(jobs...); err != nil {
					t.Fatal(err)
				}
				run(ref, cut)
				mid, err := ref.Marshal()
				if err != nil {
					t.Fatal(err)
				}

				// Restore the mid-run image into a fresh fleet.
				restored := build(to)
				if err := restored.Unmarshal(mid); err != nil {
					t.Fatal(err)
				}
				// Immediately re-marshaling must reproduce the image
				// exactly.
				again, err := restored.Marshal()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(mid, again) {
					t.Fatal("restore + re-marshal is not byte-identical")
				}

				// Run both to the horizon: identical outcomes.
				run(ref, horizon-cut)
				run(restored, horizon-cut)
				if !reflect.DeepEqual(ref.Snapshot(), restored.Snapshot()) {
					t.Fatal("restored fleet's final Result differs from the uninterrupted run")
				}
				a, err := ref.Marshal()
				if err != nil {
					t.Fatal(err)
				}
				b, err := restored.Marshal()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(a, b) {
					t.Fatal("final serialized state differs from the uninterrupted run")
				}
			})
		}
	}
}

func TestStateRejectsCorruption(t *testing.T) {
	const horizon = 48
	set := mkSet(t, horizon)
	f, err := NewShardedFleet(set, clusters(4), FIFO{}, horizon, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Submit(stateJobs()...); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := f.Step(); err != nil {
			t.Fatal(err)
		}
	}
	data, err := f.Marshal()
	if err != nil {
		t.Fatal(err)
	}

	fresh := func() *ShardedFleet {
		g, err := NewShardedFleet(set, clusters(4), FIFO{}, horizon, 0)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	if err := fresh().Unmarshal(data); err != nil {
		t.Fatalf("clean image rejected: %v", err)
	}

	// Any flipped byte must be caught by the CRC (or the version check).
	for _, idx := range []int{0, 4, len(data) / 2, len(data) - 5, len(data) - 1} {
		mut := append([]byte(nil), data...)
		mut[idx] ^= 0xff
		if err := fresh().Unmarshal(mut); err == nil {
			t.Fatalf("corruption at byte %d accepted", idx)
		}
	}
	if err := fresh().Unmarshal(data[:len(data)-1]); err == nil {
		t.Fatal("truncated image accepted")
	}
	if err := fresh().Unmarshal(nil); err == nil {
		t.Fatal("empty image accepted")
	}

	// A snapshot from a different world must be refused.
	other, err := NewShardedFleet(set, clusters(5), FIFO{}, horizon, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := other.Unmarshal(data); err == nil {
		t.Fatal("snapshot restored into a world with different slots")
	}
	gate, err := NewShardedFleet(set, clusters(4), CarbonGate{Percentile: 40, Window: 24}, horizon, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := gate.Unmarshal(data); err == nil {
		t.Fatal("snapshot restored under a different policy")
	}
	short, err := NewShardedFleet(set, clusters(4), FIFO{}, horizon-1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := short.Unmarshal(data); err == nil {
		t.Fatal("snapshot restored into a different horizon")
	}
}

// TestStateRejectsOutOfRangeFields: a checksummed image whose hours or
// counters do not fit the 32-bit record, or whose origin is not one of
// the fleet's regions (FuzzShardedUnmarshal found that one restoring as
// region 0), is refused, never truncated; the same image with every
// field at its limit restores and re-marshals byte for byte.
func TestStateRejectsOutOfRangeFields(t *testing.T) {
	const horizon = 48
	set := mkSet(t, horizon)
	image := func(j jobImage) []byte {
		img := &fleetImage{
			policy: FIFO{}.Name(), horizon: horizon, hour: 5,
			regions: []string{"CLEAN", "DIRTY"}, slots: []int{4, 4},
		}
		e := img.encodeHeader(1)
		e.job(&j)
		return e.finish()
	}
	restore := func(data []byte) (*ShardedFleet, error) {
		f, err := NewShardedFleet(set, clusters(4), FIFO{}, horizon, 0)
		if err != nil {
			t.Fatal(err)
		}
		return f, f.Unmarshal(data)
	}

	limit := jobImage{
		Job:      Job{ID: 1, Origin: "CLEAN", Length: 4, Slack: math.MaxInt32 - 4},
		progress: 2, regionI: 1, lastRun: math.MaxInt32, doneAt: math.MaxInt32,
		waitHours: math.MaxInt32, migrations: math.MaxInt32, emissions: 40,
	}
	f, err := restore(image(limit))
	if err != nil {
		t.Fatalf("image at the limits rejected: %v", err)
	}
	if again, _ := f.Marshal(); !bytes.Equal(again, image(limit)) {
		t.Fatal("image at the limits did not re-marshal byte for byte")
	}

	for name, mutate := range map[string]func(*jobImage){
		"origin":     func(j *jobImage) { j.Origin = "NOPE" },
		"slack":      func(j *jobImage) { j.Slack++ },
		"lastRun":    func(j *jobImage) { j.lastRun++ },
		"lastRun<-1": func(j *jobImage) { j.lastRun = -2 },
		"doneAt":     func(j *jobImage) { j.doneAt++ },
		"waitHours":  func(j *jobImage) { j.waitHours++ },
		"migrations": func(j *jobImage) { j.migrations = 1 << 40 },
	} {
		j := limit
		mutate(&j)
		if _, err := restore(image(j)); err == nil {
			t.Errorf("%s out of range accepted", name)
		}
	}
}

// TestStateRejectsDuplicateIDs: building the restored store's id index
// is what detects two jobs sharing an id, so a populated fleet must come
// through a refused image untouched — the bad store is built aside and
// never swapped in. The duplicates sit 5000 jobs apart: the check is not
// a neighbour comparison, and the index has split by then.
func TestStateRejectsDuplicateIDs(t *testing.T) {
	const horizon, n = 48, 6000
	set := mkSet(t, horizon)
	img := &fleetImage{
		policy: FIFO{}.Name(), horizon: horizon, hour: 5,
		regions: []string{"CLEAN", "DIRTY"}, slots: []int{4, 4},
	}
	e := img.encodeHeader(n)
	for i := 0; i < n; i++ {
		j := jobImage{Job: Job{ID: i, Origin: "CLEAN", Arrival: 5, Length: 2, Slack: 40}, regionI: -1, lastRun: -1}
		if i == n-1 {
			j.ID = 999
		}
		e.job(&j)
	}
	f, err := NewShardedFleet(set, clusters(4), FIFO{}, horizon, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Submit(stateJobsTenants()...); err != nil {
		t.Fatal(err)
	}
	for f.Hour() < 7 {
		if err := f.Step(); err != nil {
			t.Fatal(err)
		}
	}
	before, err := f.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Unmarshal(e.finish()); err == nil || !strings.Contains(err.Error(), "duplicate job id 999") {
		t.Fatalf("image with a duplicate id: err = %v", err)
	}
	if after, _ := f.Marshal(); !bytes.Equal(after, before) {
		t.Fatal("a refused image changed the fleet")
	}
	for _, j := range stateJobsTenants() {
		if !f.Has(j.ID) {
			t.Fatalf("job %d lost to a refused image", j.ID)
		}
	}
	if err := f.Step(); err != nil {
		t.Fatalf("the fleet does not step after a refused image: %v", err)
	}
}

func TestEncodeDecodeJobs(t *testing.T) {
	jobs := stateJobs()
	buf := EncodeJobs(nil, jobs)
	got, rest, err := DecodeJobs(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 {
		t.Fatalf("%d bytes left over", len(rest))
	}
	if !reflect.DeepEqual(got, jobs) {
		t.Fatalf("round trip:\ngot  %+v\nwant %+v", got, jobs)
	}

	// Tenant-tagged batches round-trip, and a tenant-free batch is
	// byte-identical to the pre-tenancy encoding (same bytes whether
	// the field exists or not — old journals replay unchanged).
	tagged := stateJobsTenants()
	gotTagged, rest, err := DecodeJobs(EncodeJobs(nil, tagged))
	if err != nil || len(rest) != 0 {
		t.Fatalf("tagged round trip: err=%v rest=%d", err, len(rest))
	}
	if !reflect.DeepEqual(gotTagged, tagged) {
		t.Fatalf("tagged round trip:\ngot  %+v\nwant %+v", gotTagged, tagged)
	}
	if !bytes.Equal(EncodeJobs(nil, jobs), buf) {
		t.Fatal("encoding is not deterministic")
	}

	// A suffix passes through untouched.
	withTail := append(EncodeJobs(nil, jobs[:2]), 0xAA, 0xBB)
	_, rest, err = DecodeJobs(withTail)
	if err != nil || len(rest) != 2 || rest[0] != 0xAA {
		t.Fatalf("suffix: rest=%x err=%v", rest, err)
	}

	// Garbage never panics; it errors or decodes fewer jobs.
	for _, junk := range [][]byte{nil, {0xff}, {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, buf[:3], buf[:len(buf)-2]} {
		if _, _, err := DecodeJobs(junk); err == nil && len(junk) > 0 && junk[0] > 0 {
			// count>0 with a short body must error
			t.Fatalf("junk %x decoded cleanly", junk)
		}
	}
}

// TestStateGolden pins the serialized byte layout (magic, version,
// field order, CRC) of the current (version 2) format, over a
// tenant-tagged world with a fair queue installed so the tenancy
// section and has-tenant job flag are exercised. A deliberate format
// change must bump stateVersion and regenerate with:
//
//	go test ./internal/sched -run TestStateGolden -update
func TestStateGolden(t *testing.T) {
	const horizon = 48
	set := mkSet(t, horizon)
	f, err := NewShardedFleet(set, clusters(3), GreenestFirst{}, horizon, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.SetFairQueue(tenant.NewFairQueue(goldenTenantConfig(t)))
	if err := f.Submit(stateJobsTenants()...); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if err := f.Step(); err != nil {
			t.Fatal(err)
		}
	}
	img, err := f.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got := hex.EncodeToString(img) + "\n" + hex.EncodeToString(EncodeJobs(nil, stateJobsTenants())) + "\n"

	golden := filepath.Join("testdata", "fleet_state_v2.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("fleet state encoding drifted from %s:\ngot:\n%swant:\n%s(field order, varint widths, or CRC changed — bump stateVersion and regenerate with -update)",
			golden, got, want)
	}
}

// TestStateDecodeV1Golden proves the pre-tenancy (version 1) format
// still decodes: fleet_state_v1.golden is a frozen fixture from before
// the tenancy sections existed — never regenerated — and must restore
// into a tenant-free fleet whose continued run re-serializes cleanly
// as version 2.
func TestStateDecodeV1Golden(t *testing.T) {
	img, batch := goldenLines(t, "fleet_state_v1.golden")

	// The fixture was taken from this exact world after 6 steps.
	const horizon = 48
	set := mkSet(t, horizon)
	f, err := NewShardedFleet(set, clusters(3), GreenestFirst{}, horizon, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Unmarshal(img); err != nil {
		t.Fatalf("v1 image rejected: %v", err)
	}
	if f.Hour() != 6 {
		t.Fatalf("restored hour %d, want 6", f.Hour())
	}
	for _, j := range stateJobs() {
		info, ok := f.Lookup(j.ID)
		if !ok {
			t.Fatalf("job %d missing after v1 restore", j.ID)
		}
		if info.Tenant != "" {
			t.Fatalf("job %d gained tenant %q from a v1 image", j.ID, info.Tenant)
		}
	}
	// Re-marshal upgrades to version 2 and round-trips.
	up, err := f.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if up[len(stateMagic)] != stateVersion {
		t.Fatalf("re-marshal wrote version %d, want %d", up[len(stateMagic)], stateVersion)
	}
	g, err := NewShardedFleet(set, clusters(3), GreenestFirst{}, horizon, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Unmarshal(up); err != nil {
		t.Fatalf("upgraded image rejected: %v", err)
	}

	// A v1 image must be refused by a fleet with a tenant config: its
	// fair queue would reorder placements the snapshot never saw.
	tf, err := NewShardedFleet(set, clusters(3), GreenestFirst{}, horizon, 0)
	if err != nil {
		t.Fatal(err)
	}
	tf.SetFairQueue(tenant.NewFairQueue(goldenTenantConfig(t)))
	if err := tf.Unmarshal(img); err == nil {
		t.Fatal("v1 image restored into a tenant-configured fleet")
	}

	// The v1 job-batch line decodes tenant-free.
	jobs, rest, err := DecodeJobs(batch)
	if err != nil || len(rest) != 0 {
		t.Fatalf("v1 batch: err=%v rest=%d", err, len(rest))
	}
	if !reflect.DeepEqual(jobs, stateJobs()) {
		t.Fatalf("v1 batch decoded to %+v", jobs)
	}
}
