package schedd

// The replication equivalence layer: a hot standby tailing the
// primary's journal stream must hold state BYTE-IDENTICAL to the
// primary at every shared watermark — for every policy — because
// apply-order equals journal-order
// equals fleet-event order. TestReplicationPrefixConsistency is the
// stronger property underneath: ANY prefix of the record stream,
// applied to a fresh fleet, lands exactly on some state the primary
// actually passed through; a follower can never occupy a state the
// primary never held.

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"carbonshift/internal/sched"
	"carbonshift/internal/wal"
)

// waitUntil polls cond to true before the deadline.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// runReplicationCase drives the crash-test workload through a
// journaling primary while a follower replicates it live, capturing
// both sides' serialized fleet state at every watermark hour and
// requiring byte-equality. startFollowerAt delays the follower so its
// bootstrap happens from a mid-run snapshot (non-empty state) instead
// of the boot-time one.
func runReplicationCase(t *testing.T, policy sched.Policy, shards, snapEvery, startFollowerAt int) {
	jobs := crashJobs(t)
	pclock := &hourClock{}
	primary, err := New(mkSet(t, crashHorizon), clusters(crashSlots), Config{
		Policy: policy, Horizon: crashHorizon, Shards: shards,
		DataDir: t.TempDir(), SnapshotEvery: snapEvery, Sync: wal.SyncNone,
	}, WithClock(pclock.now))
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	primary.source.Poll = 200 * time.Microsecond // lock-step drive: keep the long-poll snappy
	ts := httptest.NewServer(primary.Handler())
	defer ts.Close()
	client, err := NewClient(ts.URL, ts.Client())
	if err != nil {
		t.Fatal(err)
	}

	var (
		folMu     sync.Mutex
		folStates = map[int][]byte{}
		follower  *Server
	)
	follower, err = NewFollower(mkSet(t, crashHorizon), clusters(crashSlots), Config{
		Policy: policy, Horizon: crashHorizon, Shards: shards,
	}, FollowerConfig{
		Primary:        ts.URL,
		HTTPClient:     ts.Client(),
		ReconnectDelay: 2 * time.Millisecond,
		OnWatermark: func(hour int) {
			img, err := follower.fleet.Marshal()
			if err != nil {
				t.Errorf("follower marshal at hour %d: %v", hour, err)
				return
			}
			folMu.Lock()
			folStates[hour] = img
			folMu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if startFollowerAt <= 0 {
		follower.Start(ctx)
	}

	wantStates := map[int][]byte{}
	next := 0
	for hour := 0; hour < crashHorizon; hour++ {
		if hour == startFollowerAt {
			follower.Start(ctx)
		}
		pclock.hour.Store(int64(hour))
		// The stats poll forces the step (and its watermark record) even
		// on hours with no arrivals.
		if _, err := client.Stats(context.Background()); err != nil {
			t.Fatal(err)
		}
		img, err := primary.fleet.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		wantStates[hour] = img
		lo := next
		for next < len(jobs) && jobs[next].Arrival == hour {
			next++
		}
		submitAt(t, client, hour, jobs[lo:next])
		// Lock-step: let the follower fully apply this hour before the
		// clock moves on, so every watermark of the run is a shared one.
		// (The chaos test covers the free-running, fall-behind regime.)
		if startFollowerAt <= 0 || hour >= startFollowerAt {
			n := next
			waitUntil(t, fmt.Sprintf("follower catch-up at hour %d", hour), func() bool {
				return follower.fleet.Hour() >= hour && follower.fleet.Jobs() >= n
			})
		}
	}
	if next != len(jobs) {
		t.Fatalf("submitted %d/%d jobs", next, len(jobs))
	}

	waitUntil(t, "follower catch-up", func() bool {
		return follower.fleet.Hour() == crashHorizon-1 && follower.fleet.Jobs() == len(jobs)
	})

	folMu.Lock()
	defer folMu.Unlock()
	matched := 0
	for hour, got := range folStates {
		want, ok := wantStates[hour]
		if !ok {
			t.Fatalf("follower saw watermark hour %d the primary never recorded", hour)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("states diverge at watermark hour %d (%d vs %d bytes)", hour, len(got), len(want))
		}
		matched++
	}
	// Every watermark from the follower's entry on must have been
	// compared: one per stepped hour after bootstrap.
	minShared := crashHorizon - 1 - startFollowerAt - 1
	if matched < minShared {
		t.Fatalf("only %d shared watermarks compared, want ≥ %d", matched, minShared)
	}
	if got, want := follower.fleet.Jobs(), primary.fleet.Jobs(); got != want {
		t.Fatalf("follower holds %d jobs, primary %d", got, want)
	}
}

// TestReplicationEquivalence is the acceptance test of the replication
// layer: for all five policies, the follower's serialized state is
// byte-identical to the primary's at every shared watermark. Two cases
// rotate generations mid-run (the stream crosses rotate frames), and one
// starts its follower late so bootstrap restores a non-empty mid-run
// snapshot. The shards subtests set the deprecated Config.Shards on
// both sides, which must stay a no-op until it is removed.
func TestReplicationEquivalence(t *testing.T) {
	cases := []struct {
		policy          sched.Policy
		snapEvery       int
		startFollowerAt int
	}{
		{sched.SpatioTemporal{Percentile: 40, Window: 48}, 0, 0},
		{sched.FIFO{}, 0, 0},
		{sched.CarbonGate{Percentile: 40, Window: 48}, 30, 0},
		{sched.ForecastGate{Percentile: 40}, 25, 40},
		{sched.GreenestFirst{}, 0, 0},
	}
	shardCounts := []int{1, 4}
	for _, tc := range cases {
		for _, shards := range shardCounts {
			if testing.Short() && shards == 1 && tc.snapEvery == 0 && tc.policy.Name() != "fifo" {
				continue // -race CI leg: keep one case per flavor
			}
			t.Run(fmt.Sprintf("%s/shards=%d", tc.policy.Name(), shards), func(t *testing.T) {
				runReplicationCase(t, tc.policy, shards, tc.snapEvery, tc.startFollowerAt)
			})
		}
	}
}

// TestReplicationPrefixConsistency: every prefix of the journal record
// stream, applied in order to a fresh fleet, reproduces a state the
// primary actually passed through. The primary's history is captured
// after every single state-changing request; the journal is then read
// back and replayed record by record.
func TestReplicationPrefixConsistency(t *testing.T) {
	jobs := crashJobs(t)
	policy := sched.SpatioTemporal{Percentile: 40, Window: 48}
	mkConfig := func(dir string) Config {
		return Config{Policy: policy, Horizon: crashHorizon,
			DataDir: dir, SnapshotEvery: 0, Sync: wal.SyncNone}
	}
	dir := t.TempDir()
	pclock := &hourClock{}
	primary, err := New(mkSet(t, crashHorizon), clusters(crashSlots), mkConfig(dir), WithClock(pclock.now))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(primary.Handler())
	client, err := NewClient(ts.URL, ts.Client())
	if err != nil {
		t.Fatal(err)
	}

	historical := map[string]int{} // serialized state -> first seen at event #
	record := func(event int) {
		t.Helper()
		img, err := primary.fleet.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if _, seen := historical[string(img)]; !seen {
			historical[string(img)] = event
		}
	}
	event := 0
	record(event) // the empty boot state: prefix of length 0
	next := 0
	for hour := 0; hour < crashHorizon; hour++ {
		pclock.hour.Store(int64(hour))
		if _, err := client.Stats(context.Background()); err != nil {
			t.Fatal(err)
		}
		event++
		record(event)
		for next < len(jobs) && jobs[next].Arrival == hour {
			j := jobs[next]
			id := j.ID
			if _, err := client.Submit(context.Background(), JobRequest{
				ID: &id, Origin: j.Origin, LengthHours: j.Length, SlackHours: j.Slack,
				Interruptible: j.Interruptible, Migratable: j.Migratable,
			}); err != nil {
				t.Fatal(err)
			}
			event++
			record(event)
			next++
		}
	}
	ts.Close()
	if err := primary.Close(); err != nil {
		t.Fatal(err)
	}

	var records [][]byte
	if _, err := wal.Replay(latestJournal(t, dir), func(p []byte) error {
		records = append(records, append([]byte(nil), p...))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(records) == 0 {
		t.Fatal("journal holds no records")
	}

	// One fresh fleet, grown record by record: after each apply its
	// state must be SOME historical primary state (and the sequence of
	// matched events must be non-decreasing).
	fresh, err := New(mkSet(t, crashHorizon), clusters(crashSlots), Config{
		Policy: policy, Horizon: crashHorizon,
	})
	if err != nil {
		t.Fatal(err)
	}
	lastEvent := -1
	checkPrefix := func(k int) {
		t.Helper()
		img, err := fresh.fleet.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		ev, ok := historical[string(img)]
		if !ok {
			t.Fatalf("prefix of %d records produced a state the primary never held", k)
		}
		if ev < lastEvent {
			t.Fatalf("prefix of %d records matched event %d, before previously matched %d", k, ev, lastEvent)
		}
		lastEvent = ev
	}
	checkPrefix(0)
	for k, rec := range records {
		if err := fresh.ApplyReplRecord(rec); err != nil {
			t.Fatalf("applying record %d: %v", k, err)
		}
		checkPrefix(k + 1)
	}
	if got := fresh.fleet.Jobs(); got != len(jobs) {
		t.Fatalf("full prefix holds %d jobs, want %d", got, len(jobs))
	}
}
