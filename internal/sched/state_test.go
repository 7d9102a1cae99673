package sched

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"math"
	"math/bits"
	"reflect"
	"strings"
	"testing"

	"carbonshift/internal/golden"
	"carbonshift/internal/tenant"
	"carbonshift/internal/trace"
)

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
	f, err := NewFleet(set, clusters(4), FIFO{}, horizon)
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

	fresh := func() *Fleet {
		g, err := NewFleet(set, clusters(4), FIFO{}, horizon)
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
	other, err := NewFleet(set, clusters(5), FIFO{}, horizon)
	if err != nil {
		t.Fatal(err)
	}
	if err := other.Unmarshal(data); err == nil {
		t.Fatal("snapshot restored into a world with different slots")
	}
	gate, err := NewFleet(set, clusters(4), CarbonGate{Percentile: 40, Window: 24}, horizon)
	if err != nil {
		t.Fatal(err)
	}
	if err := gate.Unmarshal(data); err == nil {
		t.Fatal("snapshot restored under a different policy")
	}
	short, err := NewFleet(set, clusters(4), FIFO{}, horizon-1)
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
// stored field at its limit restores and re-marshals byte for byte. The
// record derives doneAt and waitHours, so those sit at the values their
// identities give: a running job's doneAt is 0, a done job's is at the
// limit through its last run.
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
	restore := func(data []byte) (*Fleet, error) {
		f, err := NewFleet(set, clusters(4), FIFO{}, horizon)
		if err != nil {
			t.Fatal(err)
		}
		return f, f.Unmarshal(data)
	}

	running := jobImage{
		Job:      Job{ID: 1, Origin: "CLEAN", Length: 4, Slack: math.MaxInt32 - 4},
		progress: 2, regionI: 1, lastRun: math.MaxInt32,
		waitHours: 5 - 2, migrations: math.MaxInt32, emissions: 40,
	}
	done := running
	done.progress, done.done = 4, true
	done.lastRun, done.doneAt = math.MaxInt32-1, math.MaxInt32
	done.waitHours = 5 - 4
	for name, limit := range map[string]jobImage{"running": running, "done": done} {
		f, err := restore(image(limit))
		if err != nil {
			t.Fatalf("%s image at the limits rejected: %v", name, err)
		}
		if again, _ := f.Marshal(); !bytes.Equal(again, image(limit)) {
			t.Fatalf("%s image at the limits did not re-marshal byte for byte", name)
		}

		for field, mutate := range map[string]func(*jobImage){
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
				t.Errorf("%s job: %s out of range accepted", name, field)
			}
		}
	}
}

// TestStateRejectsUnderivableFields: the record keeps neither doneAt nor
// waitHours, and keeps progress only for a job a Step has admitted, so
// a checksummed image whose values for them the restored fleet would not
// reproduce is refused rather than silently rewritten. Each planted
// image differs from an accepted one in the field its case names, plus
// whatever keeps an older rule from refusing it first; a fleet that
// stored the fields would take them all.
func TestStateRejectsUnderivableFields(t *testing.T) {
	set := mkSet(t, 48)
	restore := func(jobs ...jobImage) error {
		f, err := NewFleet(set, clusters(3), GreenestFirst{}, 48)
		if err != nil {
			t.Fatal(err)
		}
		return f.Unmarshal(plantedImage(jobs...))
	}
	doneJob, runJob, future := derivableJobs()
	if err := restore(doneJob, runJob, future); err != nil {
		t.Fatalf("consistent image rejected: %v", err)
	}
	for name, planted := range map[string]jobImage{
		"done job doneAt is not lastRun+1": underivableDone(),
		"unfinished job has a doneAt":      func() jobImage { j := runJob; j.doneAt = 9; return j }(),
		"done job waitHours":               func() jobImage { j := doneJob; j.waitHours = 2; return j }(),
		"running job waitHours":            func() jobImage { j := runJob; j.waitHours = 7; return j }(),
		"future job waitHours":             func() jobImage { j := future; j.waitHours = 1; return j }(),
		"future job has progress":          func() jobImage { j := future; j.progress, j.regionI, j.lastRun = 1, 0, 9; return j }(),
		"future job has a lastRun":         func() jobImage { j := future; j.lastRun = 9; return j }(),
		"future job has a region":          func() jobImage { j := future; j.regionI = 1; return j }(),
	} {
		jobs := []jobImage{doneJob, runJob, future}
		jobs[planted.ID-1] = planted
		if err := restore(jobs...); err == nil {
			t.Errorf("%s: image accepted", name)
		}
	}
}

// derivableJobs are three jobs an image taken at hour 10 may hold: one
// done at hour 7 after 2 run-hours and 3 waits, one that has run 2 of 6
// hours and waited 6, and one arriving at hour 20.
func derivableJobs() (done, running, future jobImage) {
	done = jobImage{
		Job:      Job{ID: 1, Origin: "CLEAN", Arrival: 2, Length: 2, Slack: 10},
		progress: 2, regionI: 0, lastRun: 6, done: true, doneAt: 7, waitHours: 3, emissions: 40,
	}
	running = jobImage{
		Job:      Job{ID: 2, Origin: "DIRTY", Arrival: 2, Length: 6, Slack: 10, Interruptible: true},
		progress: 2, regionI: 1, lastRun: 9, waitHours: 6, emissions: 400,
	}
	future = jobImage{
		Job:     Job{ID: 3, Origin: "CLEAN", Arrival: 20, Length: 3, Slack: 5},
		regionI: -1, lastRun: -1,
	}
	return done, running, future
}

// doneJobs are n done jobs an image taken at hour 10 may hold, ids from
// 100: arrivals over six hours, one to three run-hours, an hour's wait
// for every interruptible one, both regions, two tenants.
func doneJobs(n int) []jobImage {
	jobs := make([]jobImage, n)
	origins, tenants := []string{"CLEAN", "DIRTY"}, []string{"", "web"}
	for i := range jobs {
		j := Job{
			ID: 100 + i, Origin: origins[i%2], Tenant: tenants[i/2%2],
			Arrival: i % 6, Length: 1 + i%3, Slack: 4, Interruptible: i%4 < 2, Migratable: i%3 == 0,
		}
		lastRun := j.Arrival + j.Length - 1
		if j.Interruptible {
			lastRun++
		}
		jobs[i] = jobImage{
			Job: j, progress: j.Length, regionI: (i + i/3) % 2, lastRun: lastRun, done: true,
			doneAt: lastRun + 1, waitHours: lastRun + 1 - j.Arrival - j.Length, emissions: 100 + float64(i)/8,
		}
		if j.Migratable && j.Length > 1 {
			jobs[i].migrations = 1
		}
	}
	return jobs
}

// underivableDone is derivableJobs' done job with doneAt 8 where its
// last run says 7, and the waitHours that doneAt 8 would give.
func underivableDone() jobImage {
	j, _, _ := derivableJobs()
	j.doneAt, j.waitHours = 8, 4
	return j
}

// plantedImage encodes jobs as an image taken at hour 10 in
// FuzzShardedUnmarshal's world: greenest-first over the state goldens'
// two regions of 3 slots, horizon 48, no tenancy.
func plantedImage(jobs ...jobImage) []byte {
	img := &fleetImage{
		policy: GreenestFirst{}.Name(), horizon: 48, hour: 10,
		regions: []string{"CLEAN", "DIRTY"}, slots: []int{3, 3},
	}
	e := img.encodeHeader(len(jobs))
	for i := range jobs {
		e.job(&jobs[i])
	}
	return e.finish()
}

// TestStateRejectsDuplicateIDs: building the restored store's id index
// is what detects two jobs sharing an id, so a populated fleet must come
// through a refused image untouched — the bad store is built aside and
// never swapped in. In the first image the ids are strided, so no block
// is dense and every id is in the tables, and the duplicates sit 5000
// running jobs apart: the check is not a neighbour comparison, and the
// tables have split by then. In the other two the ids run in order, so
// the blocks are dense and no id enters the tables: the duplicate sits
// in one dense block, the tail when it comes, or in two, where only the
// first block's ids can answer for it, packed once it freezes.
func TestStateRejectsDuplicateIDs(t *testing.T) {
	const horizon = 48
	set := mkSet(t, horizon)
	running := func() []byte {
		const n = 6000
		img := &fleetImage{
			policy: GreenestFirst{}.Name(), horizon: horizon, hour: 5,
			regions: []string{"CLEAN", "DIRTY"}, slots: []int{3, 3},
		}
		e := img.encodeHeader(n)
		for i := 0; i < n; i++ {
			j := jobImage{Job: Job{ID: i << 12, Origin: "CLEAN", Arrival: 5, Length: 2, Slack: 40}, regionI: -1, lastRun: -1}
			if i == n-1 {
				j.ID = 999 << 12
			}
			e.job(&j)
		}
		return e.finish()
	}
	// done returns three blocks' worth of done jobs, ids 100 up, where
	// dup(i) is the id at position i, and checks that the first two blocks
	// are dense.
	done := func(dup func(i, id int) int) []byte {
		jobs := doneJobs(2*recBlock + 10)
		for blk := range 2 {
			ids := make([]int, recBlock)
			for i := range ids {
				j := &jobs[blk*recBlock+i]
				j.ID = dup(blk*recBlock+i, j.ID)
				ids[i] = j.ID
			}
			if d, dense := denseRule(ids); !dense {
				t.Fatalf("block %d's id column spans %d: not dense", blk, d.span)
			}
		}
		return plantedImage(jobs...)
	}
	for _, c := range []struct {
		name string
		img  []byte
		dup  int
	}{
		{"running jobs 5000 apart", running(), 999 << 12},
		{"inside one dense block", done(func(i, id int) int {
			if i == recBlock+1 {
				return 100 + recBlock
			}
			return id
		}), 100 + recBlock},
		{"in two dense blocks", done(func(i, id int) int {
			if i >= recBlock {
				return id - 1 // the second block starts at the first one's last id
			}
			return id
		}), 99 + recBlock},
	} {
		t.Run(c.name, func(t *testing.T) {
			f, err := NewFleet(set, clusters(3), GreenestFirst{}, horizon)
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
			if err := f.Unmarshal(c.img); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("duplicate job id %d", c.dup)) {
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
		})
	}
}

// TestRestoredBlocksComeBackFrozen: Unmarshal freezes every full block
// of done jobs in the image, as Step would have, and only those — a full
// block holding one running or not-yet-arrived job stays hot, and so does
// the last, partial block however done — and the store it builds, hot
// and frozen alike, marshals back to the image's bytes.
func TestRestoredBlocksComeBackFrozen(t *testing.T) {
	set := mkSet(t, 48)
	_, running, future := derivableJobs()
	for _, c := range []struct {
		name       string
		jobs       int
		unfinished map[int]jobImage // position → a job that is not done
		frozen     int
	}{
		{"one full block", recBlock, nil, 1},
		{"three full blocks and a partial one", 3*recBlock + 10, nil, 3},
		{"a running job in the second block", 3*recBlock + 10, map[int]jobImage{recBlock + 500: running}, 2},
		{"a job still to arrive in the first block", 2 * recBlock, map[int]jobImage{7: future}, 1},
		{"one job short of a block", recBlock - 1, nil, 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			jobs := doneJobs(c.jobs)
			for i, j := range c.unfinished {
				j.ID = jobs[i].ID
				jobs[i] = j
			}
			img := plantedImage(jobs...)
			f, err := NewFleet(set, clusters(3), GreenestFirst{}, 48)
			if err != nil {
				t.Fatal(err)
			}
			if err := f.Unmarshal(img); err != nil {
				t.Fatal(err)
			}
			if got := frozenBlocks(f); got != c.frozen {
				t.Errorf("%d blocks frozen, want %d", got, c.frozen)
			}
			if again, _ := f.Marshal(); !bytes.Equal(again, img) {
				t.Error("the restored store does not marshal back to the image")
			}
			for _, j := range jobs {
				if info, ok := f.Lookup(j.ID); !ok || info.Job != j.Job || info.Completed != j.done || info.WaitHours != j.waitHours {
					t.Fatalf("job %d restored as %+v, %v", j.ID, info, ok)
				}
			}
			if err := f.Step(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// derivedRecords counts the records of f's frozen blocks whose emissions
// are re-summed from the trace, and those whose bits are stored.
func derivedRecords(f *Fleet) (derived, stored int) {
	for _, e := range f.blocks {
		if e.hot == nil {
			off := e.frozen.bitmapOff()
			for _, m := range e.frozen.words[off : off+recBlock/64] {
				derived += bits.OnesCount64(m)
			}
			stored += recBlock
		}
	}
	return derived, stored - derived
}

// TestFrozenEmissionsVerifiedNotTrusted: a frozen block re-sums a job's
// emissions from the trace only where the freeze checked the sum against
// the record. An image restored into a fleet over the same regions and
// horizon but other trace values freezes the same blocks, keeps every
// stored value the new trace does not reproduce, and so marshals back to
// its own bytes, with every job's emissions as they were.
func TestFrozenEmissionsVerifiedNotTrusted(t *testing.T) {
	const horizon, n = 96, 3*recBlock + 100
	set, cl, origins := mkWideSet(t, horizon, 4)
	for i := range cl {
		cl[i].Slots = 48
	}
	jobs := residentJobs(n, origins)
	for i := range jobs {
		jobs[i].Arrival, jobs[i].Slack = i*40/n, 6+i%7
	}
	src, err := NewFleet(set, cl, GreenestFirst{}, horizon)
	if err != nil {
		t.Fatal(err)
	}
	if err := src.Submit(jobs...); err != nil {
		t.Fatal(err)
	}
	driveFleet(t, src)
	img, err := src.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	derived, stored := derivedRecords(src)
	if frozenBlocks(src) != n/recBlock || derived == 0 || stored == 0 {
		t.Fatalf("%d blocks frozen, %d emissions derived and %d stored: want every full block, and both kinds", frozenBlocks(src), derived, stored)
	}

	var other []*trace.Trace
	for _, code := range set.Regions() {
		tr := set.MustGet(code)
		ci := make([]float64, tr.Len())
		for h := range ci {
			ci[h] = tr.At(h) + 0.5
		}
		other = append(other, trace.New(code, tr.Start, ci))
	}
	otherSet, err := trace.NewSet(other)
	if err != nil {
		t.Fatal(err)
	}
	dst, err := NewFleet(otherSet, cl, GreenestFirst{}, horizon)
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.Unmarshal(img); err != nil {
		t.Fatal(err)
	}
	if got := frozenBlocks(dst); got != frozenBlocks(src) {
		t.Errorf("%d blocks frozen after the restore, %d before", got, frozenBlocks(src))
	}
	if derived, _ := derivedRecords(dst); derived != 0 {
		t.Errorf("%d emissions re-summed over a trace they were not paid on", derived)
	}
	if again, _ := dst.Marshal(); !bytes.Equal(again, img) {
		t.Error("the image restored over other trace values does not marshal back to itself")
	}
	for _, j := range jobs {
		want, _ := src.Lookup(j.ID)
		got, ok := dst.Lookup(j.ID)
		if !ok || math.Float64bits(got.Emissions) != math.Float64bits(want.Emissions) {
			t.Fatalf("job %d: emissions %v after the restore, %v before", j.ID, got.Emissions, want.Emissions)
		}
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
	f, err := NewFleet(set, clusters(3), GreenestFirst{}, horizon)
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

	golden.Check(t, "fleet_state_v2.golden", []byte(got))
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
	f, err := NewFleet(set, clusters(3), GreenestFirst{}, horizon)
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
	g, err := NewFleet(set, clusters(3), GreenestFirst{}, horizon)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Unmarshal(up); err != nil {
		t.Fatalf("upgraded image rejected: %v", err)
	}

	// A v1 image must be refused by a fleet with a tenant config: its
	// fair queue would reorder placements the snapshot never saw.
	tf, err := NewFleet(set, clusters(3), GreenestFirst{}, horizon)
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
