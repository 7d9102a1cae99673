package schedd

// The crash-injection harness: run a seeded workload through a
// journaling schedd, then "crash" it at a sweep of journal cut points
// — including torn mid-record writes — by truncating the journal file,
// recover a fresh server from the wreckage, re-drive whatever the cut
// lost, and require the outcome to be byte-identical to the
// uninterrupted reference run: the full placement sequence (replayed
// placements included), the aggregate Result, and the serialized final
// fleet state. This is the recovery invariant of DESIGN.md's
// durability section, checked for all five policies.

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"carbonshift/internal/sched"
	"carbonshift/internal/wal"
)

const (
	crashHorizon = 24 * 4
	crashSlots   = 5
)

func crashJobs(t testing.TB) []sched.Job {
	t.Helper()
	jobs, err := sched.GenerateJobs(sched.WorkloadSpec{
		Jobs: 26, ArrivalSpan: crashHorizon - 30, SlackHours: 24,
		InterruptibleFrac: 0.6, MigratableFrac: 0.5,
		Origins: []string{"CLEAN", "DIRTY"}, Seed: 23,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range jobs {
		if jobs[i].Length > 30 {
			jobs[i].Length = 30
		}
	}
	return jobs
}

type crashRun struct {
	placements []placeRec
	result     sched.Result
	state      []byte
	recovery   DurabilityStats
	placed     []sched.Placed // the reference's every Placed, in order
	saved      float64        // a recovered run's schedd_carbon_saved_grams
}

// crashConfig builds the common durable-server config; DataDir is
// filled in by driveReference/recoverAndFinish per run directory.
func crashConfig(policy sched.Policy, snapEvery int) Config {
	return Config{
		Policy: policy, Horizon: crashHorizon,
		SnapshotEvery: snapEvery, Sync: wal.SyncNone,
	}
}

// submitAt posts the given jobs (which all arrive at the current clock
// hour) in chunks of two, with their stream ids pinned.
func submitAt(t *testing.T, client *Client, hour int, jobs []sched.Job) {
	t.Helper()
	for lo := 0; lo < len(jobs); lo += 2 {
		hi := lo + 2
		if hi > len(jobs) {
			hi = len(jobs)
		}
		var batch []JobRequest
		for _, j := range jobs[lo:hi] {
			id := j.ID
			batch = append(batch, JobRequest{
				ID: &id, Origin: j.Origin, Tenant: j.Tenant,
				LengthHours: j.Length, SlackHours: j.Slack,
				Interruptible: j.Interruptible, Migratable: j.Migratable,
			})
		}
		ack, err := client.Submit(context.Background(), batch...)
		if err != nil {
			t.Fatalf("hour %d: %v", hour, err)
		}
		if ack.ArrivalHour != hour {
			t.Fatalf("arrival %d, want %d", ack.ArrivalHour, hour)
		}
	}
}

// driveReference runs the whole workload against a journaling server
// and returns everything the cut runs are compared against.
func driveReference(t *testing.T, dir string, cfg Config, jobs []sched.Job) crashRun {
	t.Helper()
	cfg.DataDir = dir
	clock := &hourClock{}
	var recs []placeRec
	srv, err := New(mkSet(t, crashHorizon), clusters(crashSlots), cfg,
		WithClock(clock.now),
		WithRecorder(func(h, id int, r string) { recs = append(recs, placeRec{h, id, r}) }))
	if err != nil {
		t.Fatal(err)
	}
	// A fresh directory replays nothing, so wrapping the hook after New
	// misses no placement.
	var placed []sched.Placed
	hook := srv.fleet.OnPlace
	srv.fleet.OnPlace = func(p sched.Placed) { placed = append(placed, p); hook(p) }
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client, err := NewClient(ts.URL, ts.Client())
	if err != nil {
		t.Fatal(err)
	}
	next := 0
	for hour := 0; hour < crashHorizon; hour++ {
		clock.hour.Store(int64(hour))
		// A stats poll every hour forces the step (and its watermark
		// record) even on hours with no arrivals.
		if _, err := client.Stats(context.Background()); err != nil {
			t.Fatal(err)
		}
		lo := next
		for next < len(jobs) && jobs[next].Arrival == hour {
			next++
		}
		submitAt(t, client, hour, jobs[lo:next])
	}
	if next != len(jobs) {
		t.Fatalf("reference submitted %d/%d jobs", next, len(jobs))
	}
	res, err := srv.Drain()
	if err != nil {
		t.Fatal(err)
	}
	state, err := srv.fleet.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	return crashRun{placements: recs, result: res, state: state, placed: placed}
}

// recoverAndFinish boots a server from a (possibly mutilated) data
// directory, re-submits whatever jobs the crash lost at their original
// arrival hours, drains, and returns the run's full outcome — the
// recorded placements include those re-executed during journal replay.
func recoverAndFinish(t *testing.T, dir string, cfg Config, jobs []sched.Job) crashRun {
	t.Helper()
	cfg.DataDir = dir
	clock := &hourClock{}
	var recs []placeRec
	srv, err := New(mkSet(t, crashHorizon), clusters(crashSlots), cfg,
		WithClock(clock.now),
		WithRecorder(func(h, id int, r string) { recs = append(recs, placeRec{h, id, r}) }))
	if err != nil {
		t.Fatal(err)
	}
	recHour := srv.fleet.Hour()
	// The journal is written in fleet-event order, so a cut can only
	// lose admissions at or after the last recovered hour.
	for _, j := range jobs {
		if _, known := srv.fleet.Lookup(j.ID); !known && j.Arrival < recHour {
			t.Fatalf("job %d (arrival %d) lost although the journal reached hour %d", j.ID, j.Arrival, recHour)
		}
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client, err := NewClient(ts.URL, ts.Client())
	if err != nil {
		t.Fatal(err)
	}
	for hour := recHour; hour < crashHorizon; hour++ {
		var missing []sched.Job
		for _, j := range jobs {
			if j.Arrival != hour {
				continue
			}
			if _, known := srv.fleet.Lookup(j.ID); !known {
				missing = append(missing, j)
			}
		}
		if len(missing) == 0 {
			continue
		}
		clock.hour.Store(int64(hour))
		submitAt(t, client, hour, missing)
	}
	res, err := srv.Drain()
	if err != nil {
		t.Fatal(err)
	}
	state, err := srv.fleet.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	return crashRun{placements: recs, result: res, state: state, recovery: srv.Recovery(),
		saved: srv.mx.carbonSaved.Value()}
}

// latestJournal finds the newest generation's journal in a data dir
// (file names are zero-padded, so lexicographic max is newest).
func latestJournal(t *testing.T, dir string) string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "journal-*.wal"))
	if err != nil || len(matches) == 0 {
		t.Fatalf("no journal in %s (err %v)", dir, err)
	}
	sort.Strings(matches)
	return matches[len(matches)-1]
}

// copyDirWithCut clones a data dir, truncating its newest journal to
// cut bytes — the simulated kill -9.
func copyDirWithCut(t *testing.T, src string, cut int64) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	j := latestJournal(t, src)
	data, err := os.ReadFile(j)
	if err != nil {
		t.Fatal(err)
	}
	if cut > int64(len(data)) {
		cut = int64(len(data))
	}
	if err := os.WriteFile(filepath.Join(dst, filepath.Base(j)), data[:cut], 0o644); err != nil {
		t.Fatal(err)
	}
	return dst
}

// recordBoundaries returns the byte offset after the header and after
// every valid record of a journal file.
func recordBoundaries(t *testing.T, path string) []int64 {
	t.Helper()
	bounds := []int64{int64(wal.HeaderLen)}
	res, err := wal.Replay(path, func(p []byte) error {
		bounds = append(bounds, bounds[len(bounds)-1]+8+int64(len(p)))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Truncated {
		t.Fatalf("reference journal %s has a torn tail", path)
	}
	return bounds
}

// assertBootEqualsFollowerApply is the differential between the two
// replays of one journal: boot recovery over dir, and a fresh server
// fed the same snapshot and the same record prefix the way a follower
// is (RestoreReplSnapshot + ApplyReplRecord). Both must reach the same
// fleet image and id counter — it fails if either side ever applies
// records in an order the other does not.
func assertBootEqualsFollowerApply(t *testing.T, dir string, cfg Config, label string) {
	t.Helper()
	store, err := wal.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	gen, snapshot, err := store.LatestSnapshot()
	if err != nil || gen == 0 {
		t.Fatalf("%s: snapshot: generation %d, %v", label, gen, err)
	}
	applied, err := New(mkSet(t, crashHorizon), clusters(crashSlots), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := applied.RestoreReplSnapshot(snapshot); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if _, err := wal.Replay(store.JournalPath(gen), applied.ApplyReplRecord); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	cfg.DataDir = dir
	booted, err := New(mkSet(t, crashHorizon), clusters(crashSlots), cfg)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	defer booted.Close()
	want, err := applied.fleet.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := booted.fleet.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: boot recovery and follower apply reach different fleet images", label)
	}
	if booted.nextID != applied.nextID {
		t.Fatalf("%s: id counter %d after boot recovery, %d after follower apply", label, booted.nextID, applied.nextID)
	}
}

func assertRunsEqual(t *testing.T, ref, got crashRun, label string) {
	t.Helper()
	// Placements before the restored snapshot's hour are baked into the
	// snapshot rather than re-executed; everything from that hour on —
	// journal replay, the re-driven tail, and the drain — must
	// reproduce the reference sequence exactly.
	var want []placeRec
	for _, p := range ref.placements {
		if p.hour >= got.recovery.RecoveredSnapshotHour {
			want = append(want, p)
		}
	}
	if !reflect.DeepEqual(got.placements, want) {
		n := len(got.placements)
		if len(want) < n {
			n = len(want)
		}
		div := n
		for i := 0; i < n; i++ {
			if got.placements[i] != want[i] {
				div = i
				break
			}
		}
		t.Fatalf("%s: placement sequences diverge at %d/%d (recovered %d records)",
			label, div, len(want), len(got.placements))
	}
	if !reflect.DeepEqual(got.result, ref.result) {
		t.Fatalf("%s: Result differs:\nrecovered: %+v\nreference: %+v", label, summarize(got.result), summarize(ref.result))
	}
	if !bytes.Equal(got.state, ref.state) {
		t.Fatalf("%s: serialized final fleet state is not byte-identical", label)
	}
}

// TestCrashRecoveryEquivalence is the acceptance test of the
// durability layer: for every policy, cutting the journal anywhere —
// record boundaries and torn mid-record positions alike — and
// recovering yields placements, Result, and serialized state
// byte-identical to the run that never crashed. Two of the policies
// snapshot mid-run, so the sweep also exercises snapshot restore plus
// journal-tail replay; the others replay from the boot snapshot alone.
func TestCrashRecoveryEquivalence(t *testing.T) {
	jobs := crashJobs(t)
	cases := []struct {
		policy    sched.Policy
		snapEvery int
		fullSweep bool
	}{
		// The full boundary sweep runs without mid-run snapshots so the
		// final journal spans the entire run; two of the coarse cases
		// rotate mid-run, so their cuts recover through a snapshot
		// restore plus journal-tail replay.
		{sched.SpatioTemporal{Percentile: 40, Window: 48}, 0, true},
		{sched.FIFO{}, 0, false},
		{sched.CarbonGate{Percentile: 40, Window: 48}, 30, false},
		{sched.ForecastGate{Percentile: 40}, 25, false},
		{sched.GreenestFirst{}, 0, false},
	}
	for _, tc := range cases {
		t.Run(tc.policy.Name(), func(t *testing.T) {
			refDir := t.TempDir()
			ref := driveReference(t, refDir, crashConfig(tc.policy, tc.snapEvery), jobs)
			journal := latestJournal(t, refDir)
			bounds := recordBoundaries(t, journal)
			size := bounds[len(bounds)-1]

			// Cut points: every record boundary plus torn positions
			// inside the following record (mid length-prefix and
			// mid-payload) for the full-sweep policy; a coarse sweep
			// with the same flavors for the rest.
			cutSet := map[int64]bool{0: true, 1: true, size - 1: true, size: true}
			if tc.fullSweep {
				stride := 1
				if testing.Short() {
					stride = 9
				}
				for i := 0; i < len(bounds); i += stride {
					cutSet[bounds[i]] = true
					cutSet[bounds[i]+3] = true
					cutSet[bounds[i]+11] = true
				}
			} else {
				for _, frac := range []int64{5, 2} {
					cutSet[size/frac] = true
				}
				cutSet[bounds[len(bounds)/2]] = true
				cutSet[bounds[len(bounds)/3]+3] = true
			}
			// One more cut for the full sweep: the last boundary between an
			// admit record and the watermark that follows it, where boot
			// recovery is also compared against follower apply.
			admitCut := int64(-1)
			if tc.fullSweep {
				var kinds []byte
				if _, err := wal.Replay(journal, func(p []byte) error {
					kinds = append(kinds, p[0])
					return nil
				}); err != nil {
					t.Fatal(err)
				}
				for i := 0; i+1 < len(kinds); i++ {
					if kinds[i] == recAdmit && kinds[i+1] == recWatermark {
						admitCut = bounds[i+1]
					}
				}
				if admitCut < 0 {
					t.Fatal("reference journal has no admit record followed by a watermark")
				}
				cutSet[admitCut] = true
			}
			var cuts []int64
			for c := range cutSet {
				if c >= 0 && c <= size {
					cuts = append(cuts, c)
				}
			}
			sort.Slice(cuts, func(a, b int) bool { return cuts[a] < cuts[b] })

			sawSnapshotRestore, sawTorn := false, false
			for _, cut := range cuts {
				dir := copyDirWithCut(t, refDir, cut)
				got := recoverAndFinish(t, dir, crashConfig(tc.policy, tc.snapEvery), jobs)
				assertRunsEqual(t, ref, got, fmt.Sprintf("cut at byte %d/%d", cut, size))
				if cut == admitCut {
					assertBootEqualsFollowerApply(t, copyDirWithCut(t, refDir, cut),
						crashConfig(tc.policy, tc.snapEvery), fmt.Sprintf("cut at byte %d/%d", cut, size))
				}
				if !got.recovery.Recovered {
					t.Fatalf("cut at %d: boot did not report recovery", cut)
				}
				if got.recovery.RecoveredSnapshotHour > 0 {
					sawSnapshotRestore = true
				}
				if got.recovery.TornTail {
					sawTorn = true
				}
			}
			if tc.snapEvery > 0 && !sawSnapshotRestore {
				t.Error("no cut exercised a mid-run snapshot restore")
			}
			if !sawTorn {
				t.Error("no cut exercised a torn journal tail")
			}
		})
	}
}

// TestRecoveryAfterCleanShutdown: a drain + close followed by a reboot
// from the same directory recovers every job and the exact final
// state, and a second reboot is stable (rotation is idempotent).
func TestRecoveryAfterCleanShutdown(t *testing.T) {
	jobs := crashJobs(t)
	policy := sched.CarbonGate{Percentile: 40, Window: 48}
	dir := t.TempDir()
	ref := driveReference(t, dir, crashConfig(policy, 24), jobs)

	for reboot := 1; reboot <= 2; reboot++ {
		clock := &hourClock{}
		cfg := crashConfig(policy, 24)
		cfg.DataDir = dir
		srv, err := New(mkSet(t, crashHorizon), clusters(crashSlots), cfg,
			WithClock(clock.now))
		if err != nil {
			t.Fatal(err)
		}
		rec := srv.Recovery()
		if !rec.Recovered || rec.RecoveredJobs != len(jobs) || rec.TornTail {
			t.Fatalf("reboot %d: recovery = %+v", reboot, rec)
		}
		state, err := srv.fleet.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(state, ref.state) {
			t.Fatalf("reboot %d: recovered state differs from the shut-down state", reboot)
		}
		if got := srv.Snapshot(); !reflect.DeepEqual(got, ref.result) {
			t.Fatalf("reboot %d: recovered Result differs", reboot)
		}
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
