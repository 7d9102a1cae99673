package schedd

// The failover path end to end, in process: a follower replicates a
// journaling primary, the primary dies, the follower promotes — new
// journal generation under its own flock — and the failover client
// keeps writing through the transition with zero acknowledged-job
// loss. The CI e2e leg replays the same story with real processes and
// kill -9.

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"carbonshift/internal/sched"
	"carbonshift/internal/wal"
)

// replicatedPair boots a journaling primary and a follower (with its
// own data dir) tailing it, plus httptest servers for both.
func replicatedPair(t *testing.T, policy sched.Policy) (primary, follower *Server, pts, fts *httptest.Server, pclock, fclock *hourClock) {
	t.Helper()
	pclock = &hourClock{}
	var err error
	primary, err = New(mkSet(t, 24*20), clusters(20), Config{
		Policy:  policy,
		DataDir: t.TempDir(), SnapshotEvery: 48, Sync: wal.SyncNone,
	}, WithClock(pclock.now))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { primary.Close() })
	primary.source.Poll = 500 * time.Microsecond
	pts = httptest.NewServer(primary.Handler())
	t.Cleanup(pts.Close)

	fclock = &hourClock{}
	follower, err = NewFollower(mkSet(t, 24*20), clusters(20), Config{
		Policy:  policy,
		DataDir: t.TempDir(), SnapshotEvery: 48, Sync: wal.SyncNone,
	}, FollowerConfig{
		Primary:        pts.URL,
		ReconnectDelay: time.Millisecond,
	}, WithClock(fclock.now))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { follower.Close() })
	fts = httptest.NewServer(follower.Handler())
	t.Cleanup(fts.Close)
	return primary, follower, pts, fts, pclock, fclock
}

func TestFailoverPromotion(t *testing.T) {
	primary, follower, pts, fts, pclock, fclock := replicatedPair(t, sched.CarbonGate{Percentile: 40, Window: 48})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	follower.Start(ctx)

	// Phase 1: write through the failover client configured with the
	// FOLLOWER first — the 421 redirect must land the writes on the
	// primary anyway.
	fo, err := NewFailoverClient([]string{fts.URL, pts.URL}, nil)
	if err != nil {
		t.Fatal(err)
	}
	const phase1 = 30
	for i := 0; i < phase1; i++ {
		id := i
		if _, err := fo.Submit(ctx, JobRequest{
			ID: &id, Origin: "CLEAN", LengthHours: 2, SlackHours: 24, Interruptible: true,
		}); err != nil {
			t.Fatal(err)
		}
	}
	if primary.fleet.Jobs() != phase1 {
		t.Fatalf("primary admitted %d jobs, want %d (redirect failed?)", primary.fleet.Jobs(), phase1)
	}
	pclock.hour.Store(3)
	pc, err := NewClient(pts.URL, pts.Client())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pc.Stats(ctx); err != nil {
		t.Fatal(err)
	}

	// A direct write to the follower must carry the full 421 contract.
	resp, err := http.Post(fts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"origin":"CLEAN","length_hours":1}`))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusMisdirectedRequest {
		t.Fatalf("follower write status %d, want 421", resp.StatusCode)
	}
	if resp.Header.Get("X-Replication-Lag-Hours") == "" {
		t.Error("follower response missing X-Replication-Lag-Hours")
	}
	var e ErrorResponse
	if err := decodeBody(resp, &e); err != nil {
		t.Fatal(err)
	}
	if e.Primary != pts.URL {
		t.Fatalf("421 primary hint %q, want %q", e.Primary, pts.URL)
	}

	// Wait for full catch-up, then kill the primary. Everything
	// acknowledged so far is on the follower: zero loss by
	// construction.
	waitUntil(t, "follower catch-up", func() bool {
		return follower.fleet.Jobs() == phase1 && follower.fleet.Hour() == primary.fleet.Hour()
	})
	// The kill: sever the follower's live stream connection too —
	// httptest's graceful Close would otherwise wait on it forever,
	// which a kill -9'd process certainly would not.
	pts.CloseClientConnections()
	pts.Close()
	if err := primary.Close(); err != nil {
		t.Fatal(err)
	}

	// Promote over HTTP, as the operator (or CI) would.
	fc, err := NewClient(fts.URL, fts.Client())
	if err != nil {
		t.Fatal(err)
	}
	pr, err := fc.Promote(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !pr.Promoted || pr.Role != "primary" || pr.Jobs != phase1 {
		t.Fatalf("promote = %+v", pr)
	}
	if pr2, err := fc.Promote(ctx); err != nil || pr2.Promoted {
		t.Fatalf("second promote = %+v, %v (want idempotent no-op)", pr2, err)
	}
	fclock.hour.Store(int64(follower.Hour()))

	// Phase 2: the same failover client keeps writing — the dead
	// primary is skipped, the promoted follower accepts.
	const phase2 = 20
	for i := 0; i < phase2; i++ {
		id := phase1 + i
		if _, err := fo.Submit(ctx, JobRequest{
			ID: &id, Origin: "DIRTY", LengthHours: 2, SlackHours: 24, Interruptible: true,
		}); err != nil {
			t.Fatal(err)
		}
	}
	stats, err := fc.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Submitted != phase1+phase2 {
		t.Fatalf("submitted %d, want %d — acknowledged jobs were lost across failover", stats.Submitted, phase1+phase2)
	}
	if stats.Durability == nil || !stats.Durability.Recovered || stats.Durability.Generation == 0 {
		t.Fatalf("durability lineage = %+v, want recovered:true with a fresh generation", stats.Durability)
	}
	if stats.Replication == nil || stats.Replication.Role != "primary" || !stats.Replication.Promoted {
		t.Fatalf("replication block = %+v", stats.Replication)
	}

	// The promoted primary serves replication itself: a brand-new
	// follower bootstraps from it and converges.
	second, err := NewFollower(mkSet(t, 24*20), clusters(20), Config{
		Policy: sched.CarbonGate{Percentile: 40, Window: 48},
	}, FollowerConfig{Primary: fts.URL, ReconnectDelay: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer second.Close()
	second.Start(ctx)
	waitUntil(t, "second-generation follower", func() bool {
		return second.fleet.Jobs() == phase1+phase2
	})

	// And the promoted primary still drains like any other.
	res, err := follower.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outcomes) != phase1+phase2 || res.Completed != phase1+phase2 {
		t.Fatalf("drain = %d outcomes, %d completed", len(res.Outcomes), res.Completed)
	}
}

// TestPromoteUnderConcurrentReads: promotion on a live, serving
// follower — stats and health polls in flight — must not race the
// installation of the durable state or the recovery lineage (run
// under -race).
func TestPromoteUnderConcurrentReads(t *testing.T) {
	_, follower, pts, fts, _, _ := replicatedPair(t, sched.FIFO{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	follower.Start(ctx)

	pc, err := NewClient(pts.URL, pts.Client())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pc.Submit(ctx, JobRequest{Origin: "CLEAN", LengthHours: 1, SlackHours: 12}); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "replication", func() bool { return follower.fleet.Jobs() == 1 })

	stop := make(chan struct{})
	pollErr := make(chan error, 1)
	go func() {
		defer close(pollErr)
		fc, err := NewClient(fts.URL, fts.Client())
		if err != nil {
			pollErr <- err
			return
		}
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := fc.Stats(ctx); err != nil {
				pollErr <- err
				return
			}
		}
	}()
	time.Sleep(2 * time.Millisecond) // let the poller get going
	if promoted, err := follower.Promote(); err != nil || !promoted {
		t.Fatalf("promote = %v, %v", promoted, err)
	}
	close(stop)
	if err := <-pollErr; err != nil {
		t.Fatal(err)
	}
	fc, err := NewClient(fts.URL, fts.Client())
	if err != nil {
		t.Fatal(err)
	}
	stats, err := fc.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Durability == nil || !stats.Durability.Recovered {
		t.Fatalf("post-promotion durability = %+v", stats.Durability)
	}
}

// TestAutoPromoteOnProbeLoss: a follower configured with a probe
// interval promotes itself once the primary stops answering.
func TestAutoPromoteOnProbeLoss(t *testing.T) {
	primary, follower, pts, _, _, _ := replicatedPair(t, sched.FIFO{})
	_ = primary
	// Rebuild the follower's probing config: replicatedPair leaves
	// probing off, so re-create with it on.
	follower.role.Load().session.cfg.ProbeInterval = 2 * time.Millisecond
	follower.role.Load().session.cfg.ProbeFailures = 3
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	follower.Start(ctx)

	pc, err := NewClient(pts.URL, pts.Client())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pc.Submit(ctx, JobRequest{Origin: "CLEAN", LengthHours: 1, SlackHours: 12}); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "replication", func() bool { return follower.fleet.Jobs() == 1 })
	if follower.Role() != "follower" {
		t.Fatal("follower promoted while the primary was healthy")
	}

	pts.CloseClientConnections()
	pts.Close()
	primary.Close()
	waitUntil(t, "auto-promotion", func() bool { return follower.Role() == "primary" })
	if rec := follower.Recovery(); !rec.Recovered || rec.RecoveredJobs != 1 {
		t.Fatalf("promoted recovery = %+v", rec)
	}
}

// TestPromoteWithoutDataDir: an in-memory follower can still take
// over; it simply keeps running without a journal.
func TestPromoteWithoutDataDir(t *testing.T) {
	pclock := &hourClock{}
	primary, err := New(mkSet(t, 24*10), clusters(4), Config{
		Policy: sched.FIFO{}, DataDir: t.TempDir(), Sync: wal.SyncNone,
	}, WithClock(pclock.now))
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	pts := httptest.NewServer(primary.Handler())
	defer pts.Close()

	follower, err := NewFollower(mkSet(t, 24*10), clusters(4), Config{
		Policy: sched.FIFO{},
	}, FollowerConfig{Primary: pts.URL, ReconnectDelay: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	follower.Start(ctx)

	pc, err := NewClient(pts.URL, pts.Client())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pc.Submit(ctx, JobRequest{Origin: "CLEAN", LengthHours: 1, SlackHours: 12}); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "replication", func() bool { return follower.fleet.Jobs() == 1 })
	promoted, err := follower.Promote()
	if err != nil || !promoted {
		t.Fatalf("promote = %v, %v", promoted, err)
	}
	if follower.fleet.Jobs() != 1 || follower.Role() != "primary" {
		t.Fatal("promotion lost state")
	}
	// Its stream endpoints must refuse cleanly rather than panic.
	resp, err := http.Get(httptest.NewServer(follower.Handler()).URL + "/v1/repl/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("snapshot on journal-less primary: status %d, want 404", resp.StatusCode)
	}
}

// TestFailedPromotionResumesTail: a promotion that cannot claim the
// follower's data dir (here: another store holds its flock) fails
// loudly and leaves a working follower — same role, tail resumed from
// its cursor with no re-bootstrap — and succeeds once the directory is
// free.
func TestFailedPromotionResumesTail(t *testing.T) {
	_, follower, pts, fts, _, fclock := replicatedPair(t, sched.FIFO{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	follower.Start(ctx)

	pc, err := NewClient(pts.URL, pts.Client())
	if err != nil {
		t.Fatal(err)
	}
	job := JobRequest{Origin: "CLEAN", LengthHours: 1, SlackHours: 12}
	if _, err := pc.Submit(ctx, job); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "replication", func() bool { return follower.fleet.Jobs() == 1 })

	held, err := wal.OpenStore(follower.cfg.DataDir)
	if err != nil {
		t.Fatal(err)
	}
	defer held.Close()
	bootstraps := follower.role.Load().session.tail.Stats().Bootstraps
	if promoted, err := follower.Promote(); err == nil || promoted {
		t.Fatalf("promote into a held data dir = %v, %v; want an error", promoted, err)
	}
	if follower.Role() != "follower" {
		t.Fatalf("role after a failed promotion = %q", follower.Role())
	}
	if _, err := pc.Submit(ctx, job); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "replication after the failed promotion", func() bool { return follower.fleet.Jobs() == 2 })
	if got := follower.role.Load().session.tail.Stats().Bootstraps; got != bootstraps {
		t.Fatalf("tail re-bootstrapped (%d -> %d) instead of resuming from its cursor", bootstraps, got)
	}

	if err := held.Close(); err != nil {
		t.Fatal(err)
	}
	if promoted, err := follower.Promote(); err != nil || !promoted {
		t.Fatalf("promote into the released data dir = %v, %v", promoted, err)
	}
	fclock.hour.Store(int64(follower.Hour()))
	fc, err := NewClient(fts.URL, fts.Client())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fc.Submit(ctx, job); err != nil {
		t.Fatalf("write to the promoted primary: %v", err)
	}
	stats, err := fc.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Submitted != 3 {
		t.Fatalf("submitted %d, want 3", stats.Submitted)
	}
	if stats.Durability == nil || !stats.Durability.Recovered || stats.Durability.Generation < 1 {
		t.Fatalf("durability lineage = %+v, want recovered:true with a generation", stats.Durability)
	}
}

// TestPromotedPrimaryReboots: a promoted standby is a primary like any
// other — what it journaled after taking authority over its own data
// dir is what a reboot from that directory recovers, byte for byte.
func TestPromotedPrimaryReboots(t *testing.T) {
	primary, follower, pts, fts, pclock, fclock := replicatedPair(t, sched.CarbonGate{Percentile: 40, Window: 48})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	follower.Start(ctx)

	submit := func(c *Client, origin string, n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if _, err := c.Submit(ctx, JobRequest{
				Origin: origin, LengthHours: 3, SlackHours: 24, Interruptible: true,
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	pc, err := NewClient(pts.URL, pts.Client())
	if err != nil {
		t.Fatal(err)
	}
	const first, second = 12, 9
	submit(pc, "CLEAN", first)
	pclock.hour.Store(2)
	if _, err := pc.Stats(ctx); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "follower catch-up", func() bool {
		return follower.fleet.Jobs() == first && follower.fleet.Hour() == primary.fleet.Hour()
	})
	pts.CloseClientConnections()
	pts.Close()
	if err := primary.Close(); err != nil {
		t.Fatal(err)
	}
	if promoted, err := follower.Promote(); err != nil || !promoted {
		t.Fatalf("promote = %v, %v", promoted, err)
	}

	// The second batch exists only in the promoted server's own journal.
	fc, err := NewClient(fts.URL, fts.Client())
	if err != nil {
		t.Fatal(err)
	}
	fclock.hour.Store(int64(follower.Hour()))
	submit(fc, "DIRTY", second)
	fclock.hour.Add(4)
	if _, err := fc.Stats(ctx); err != nil {
		t.Fatal(err)
	}
	want, err := follower.fleet.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	fts.Close()
	if err := follower.Close(); err != nil {
		t.Fatal(err)
	}

	reborn, err := New(mkSet(t, 24*20), clusters(20), follower.cfg, WithClock(fclock.now))
	if err != nil {
		t.Fatal(err)
	}
	defer reborn.Close()
	rec := reborn.Recovery()
	if !rec.Recovered || rec.ReplayedRecords < second || rec.RecoveredJobs != first+second || rec.TornTail {
		t.Fatalf("reboot of the promoted primary: recovery = %+v", rec)
	}
	got, err := reborn.fleet.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("state recovered from the promoted primary's data dir differs from the state it held")
	}
}

// decodeBody decodes a JSON response body and closes it.
func decodeBody(resp *http.Response, out any) error {
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(out)
}

// TestClosedFollowerStaysClosed: Close ends replication for good. A
// resumeTail after it — what a failed auto-promotion in the probe loop
// runs — must not restart the tail (a restarted probe loop would join
// the wait group Close is blocked on), and neither may Start.
func TestClosedFollowerStaysClosed(t *testing.T) {
	_, follower, _, _, _, _ := replicatedPair(t, sched.FIFO{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	follower.Start(ctx)
	if err := follower.Close(); err != nil {
		t.Fatal(err)
	}
	follower.resumeTail()
	follower.Start(ctx)
	f := follower.role.Load().session
	f.runMu.Lock()
	running := f.running
	f.runMu.Unlock()
	if running {
		t.Fatal("the tail runs again after Close")
	}
}
