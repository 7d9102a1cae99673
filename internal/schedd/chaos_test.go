package schedd

// The replication chaos harness: a follower tails a primary through a
// cuttable TCP proxy while load drives the primary free-running (no
// lock-step). The chaos goroutine randomly partitions the network
// mid-stream and kills/restarts the follower's tail at whatever stream
// offset it happens to be at. The invariants: the follower resumes
// from its cursor with no gap and no double-apply (either would make
// its state diverge — a duplicate id errors the apply, a gap changes
// the placement history), every acknowledged job ends up applied
// exactly once, and the final state converges byte-identically to the
// primary's. Run under -race this also certifies the follower's
// lifecycle locking (Start/stopTail/Close) and the concurrent
// read-path against a live apply loop.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"carbonshift/internal/rng"
	"carbonshift/internal/sched"
	"carbonshift/internal/wal"
)

// chaosProxy is a TCP forwarder whose live connections can be cut on
// demand — the network partition lever.
type chaosProxy struct {
	ln     net.Listener
	target string

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool

	cuts atomic.Int64
	wg   sync.WaitGroup
}

func newChaosProxy(t *testing.T, target string) *chaosProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &chaosProxy{ln: ln, target: target, conns: map[net.Conn]struct{}{}}
	p.wg.Add(1)
	go p.accept()
	t.Cleanup(p.Close)
	return p
}

func (p *chaosProxy) URL() string { return "http://" + p.ln.Addr().String() }

func (p *chaosProxy) accept() {
	defer p.wg.Done()
	for {
		c, err := p.ln.Accept()
		if err != nil {
			return
		}
		up, err := net.Dial("tcp", p.target)
		if err != nil {
			c.Close()
			continue
		}
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			c.Close()
			up.Close()
			return
		}
		p.conns[c] = struct{}{}
		p.conns[up] = struct{}{}
		p.mu.Unlock()
		pipe := func(dst, src net.Conn) {
			defer p.wg.Done()
			io.Copy(dst, src)
			dst.Close()
			src.Close()
			p.mu.Lock()
			delete(p.conns, dst)
			delete(p.conns, src)
			p.mu.Unlock()
		}
		p.wg.Add(2)
		go pipe(up, c)
		go pipe(c, up)
	}
}

// cut severs every live connection; new dials still succeed (a
// transient partition, not an outage).
func (p *chaosProxy) cut() {
	p.mu.Lock()
	for c := range p.conns {
		c.Close()
	}
	p.mu.Unlock()
	p.cuts.Add(1)
}

func (p *chaosProxy) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	p.mu.Unlock()
	p.ln.Close()
	p.cut()
	p.wg.Wait()
}

func TestReplicationChaos(t *testing.T) {
	horizon := 24 * 8
	if testing.Short() {
		horizon = 24 * 4
	}
	policy := sched.GreenestFirst{}
	jobs, err := sched.GenerateJobs(sched.WorkloadSpec{
		Jobs: 80, ArrivalSpan: horizon - 20, SlackHours: 30,
		InterruptibleFrac: 0.6, MigratableFrac: 0.5,
		Origins: []string{"CLEAN", "DIRTY"}, Seed: 99,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range jobs {
		if jobs[i].Length > 20 {
			jobs[i].Length = 20
		}
	}

	pclock := &hourClock{}
	primary, err := New(mkSet(t, horizon), clusters(8), Config{
		Policy: policy, Horizon: horizon, Shards: 2,
		DataDir: t.TempDir(), SnapshotEvery: 48, Sync: wal.SyncNone,
	}, WithClock(pclock.now))
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	primary.source.Poll = 500 * time.Microsecond
	primary.source.Heartbeat = 5 * time.Millisecond
	ts := httptest.NewServer(primary.Handler())
	defer ts.Close()
	proxy := newChaosProxy(t, ts.Listener.Addr().String())

	follower, err := NewFollower(mkSet(t, horizon), clusters(8), Config{
		Policy: policy, Horizon: horizon, Shards: 2,
	}, FollowerConfig{
		Primary:        proxy.URL(),
		ReconnectDelay: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	follower.Start(ctx)
	fts := httptest.NewServer(follower.Handler())
	defer fts.Close()

	client, err := NewClient(ts.URL, ts.Client())
	if err != nil {
		t.Fatal(err)
	}

	// The load driver free-runs the primary: advance the clock, force
	// the step, submit the hour's arrivals, never wait for the
	// follower.
	driveDone := make(chan struct{})
	var driveErr atomic.Value
	go func() {
		defer close(driveDone)
		next := 0
		for hour := 0; hour < horizon; hour++ {
			pclock.hour.Store(int64(hour))
			if _, err := client.Stats(context.Background()); err != nil {
				driveErr.Store(err)
				return
			}
			lo := next
			for next < len(jobs) && jobs[next].Arrival == hour {
				next++
			}
			for _, j := range jobs[lo:next] {
				id := j.ID
				if _, err := client.Submit(context.Background(), JobRequest{
					ID: &id, Origin: j.Origin, LengthHours: j.Length, SlackHours: j.Slack,
					Interruptible: j.Interruptible, Migratable: j.Migratable,
				}); err != nil {
					driveErr.Store(fmt.Errorf("hour %d: %w", hour, err))
					return
				}
			}
			time.Sleep(300 * time.Microsecond)
		}
	}()

	// Concurrent follower reads: hammer the read-only surface while the
	// apply loop mutates the fleet, and check the lag header contract.
	readsDone := make(chan struct{})
	var readErr atomic.Value
	go func() {
		defer close(readsDone)
		hc := fts.Client()
		for {
			select {
			case <-driveDone:
				return
			default:
			}
			resp, err := hc.Get(fts.URL + "/v1/stats")
			if err != nil {
				readErr.Store(err)
				return
			}
			lagHdr := resp.Header.Get("X-Replication-Lag-Hours")
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if lag, err := strconv.Atoi(lagHdr); err != nil || lag < 0 {
				readErr.Store(fmt.Errorf("bad X-Replication-Lag-Hours %q", lagHdr))
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()

	// Chaos: random partitions and tail kill/restarts at whatever
	// stream offset the follower happens to be at.
	chaosDone := make(chan struct{})
	restarts := 0
	go func() {
		defer close(chaosDone)
		src := rng.New(7)
		for {
			select {
			case <-driveDone:
				return
			default:
			}
			time.Sleep(time.Duration(500+src.Intn(2500)) * time.Microsecond)
			if src.Intn(2) == 0 {
				proxy.cut()
			} else {
				follower.role.Load().session.stop()
				follower.Start(ctx)
				restarts++
			}
		}
	}()

	<-driveDone
	<-chaosDone
	<-readsDone
	if err := driveErr.Load(); err != nil {
		t.Fatal(err)
	}
	if err := readErr.Load(); err != nil {
		t.Fatal(err)
	}
	if proxy.cuts.Load() == 0 || restarts == 0 {
		t.Fatalf("chaos did not bite: %d cuts, %d restarts", proxy.cuts.Load(), restarts)
	}

	// Convergence: with the primary quiesced, the follower must land on
	// the identical state — every acknowledged job applied exactly
	// once, the hour caught up, the serialized image byte-equal.
	wantHour := primary.fleet.Hour()
	waitUntil(t, "post-chaos convergence", func() bool {
		return follower.fleet.Hour() >= wantHour && follower.fleet.Jobs() == len(jobs)
	})
	want, err := primary.fleet.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := follower.fleet.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("follower diverged after chaos (%d vs %d bytes)", len(got), len(want))
	}
	for _, j := range jobs {
		if _, ok := follower.fleet.Lookup(j.ID); !ok {
			t.Fatalf("job %d missing on the follower", j.ID)
		}
	}
	st := follower.role.Load().session.tail.Stats()
	if st.Reconnects == 0 {
		t.Error("no reconnects recorded although connections were cut")
	}
	t.Logf("chaos: %d cuts, %d tail restarts, %d reconnects, %d bootstraps, %d records applied",
		proxy.cuts.Load(), restarts, st.Reconnects, st.Bootstraps, st.RecordsApplied)
}
