package schedd

// The table of fault schedules, and the lifecycle edges that stay short
// tests. Every schedule drives a cluster (sim_test.go) and ends in its
// check. Each runs under the name of the test it replaced, so a -run
// line naming that test still selects it; TestFaultSchedules runs the
// seeded ones, each a pure function of its seed. A failing schedule's
// output ends with the one line that reruns it alone.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"testing"
	"time"

	"carbonshift/internal/rng"
	"carbonshift/internal/sched"
	"carbonshift/internal/wal"
)

var (
	spatio   = sched.SpatioTemporal{Percentile: 40, Window: 48}
	gate     = sched.CarbonGate{Percentile: 40, Window: 48}
	forecast = sched.ForecastGate{Percentile: 40}
	// policies is what a seeded schedule draws its policy from.
	policies = []sched.Policy{sched.FIFO{}, gate, forecast, sched.GreenestFirst{}, spatio}
)

type schedule struct {
	test, name string
	run        func(t *testing.T)
}

var schedules = []schedule{
	// The five-policy cut sweep. Two worlds rotate mid-run, so their cuts
	// recover through a snapshot restore plus the journal tail.
	{"TestCrashRecoveryEquivalence", "spatiotemporal", cutSweep(world{policy: spatio}, true)},
	{"TestCrashRecoveryEquivalence", "fifo", cutSweep(world{policy: sched.FIFO{}}, false)},
	{"TestCrashRecoveryEquivalence", "carbon-gate", cutSweep(world{policy: gate, snapEvery: 30}, false)},
	{"TestCrashRecoveryEquivalence", "forecast-gate", cutSweep(world{policy: forecast, snapEvery: 25}, false)},
	{"TestCrashRecoveryEquivalence", "greenest-first", cutSweep(world{policy: sched.GreenestFirst{}}, false)},
	{"TestTenantCrashRecoveryEquivalence", "spatiotemporal", cutSweep(world{policy: spatio, snapEvery: 30, tenants: true}, false)},
	// The mixed wire's journal must equal the all-JSON run's byte for
	// byte (check holds it to that); then its cuts re-drive over it.
	{"TestMixedProtocolEquivalence", "spatiotemporal", func(t *testing.T) {
		w := world{policy: spatio, wire: wireMixed}
		plain(w)(t)
		cutSweep(w, false)(t)
	}},
	{"TestRecoveryAfterCleanShutdown", "carbon-gate", plain(world{policy: gate, snapEvery: 24})},
	{"TestReplicationPrefixConsistency", "spatiotemporal", plain(world{policy: spatio})},
	{"TestMetricsCarbonSavedAfterRestart", "greenest-first", savedAfterRestart},

	// Lock-step replication: two worlds rotate mid-run, so the stream
	// crosses rotate frames, and one follower starts late, so it
	// bootstraps from a mid-run snapshot. Each runs under two values of
	// the deprecated Config.Shards, which must stay a no-op.
	{"TestReplicationEquivalence", "spatiotemporal", shardAxis(world{policy: spatio}, 0)},
	{"TestReplicationEquivalence", "fifo", shardAxis(world{policy: sched.FIFO{}}, 0)},
	{"TestReplicationEquivalence", "carbon-gate", shardAxis(world{policy: gate, snapEvery: 30}, 0)},
	{"TestReplicationEquivalence", "forecast-gate", shardAxis(world{policy: forecast, snapEvery: 25}, 40)},
	{"TestReplicationEquivalence", "greenest-first", shardAxis(world{policy: sched.GreenestFirst{}}, 0)},
	{"TestTenantReplicationEquivalence", "primary2-follower1", replicate(world{policy: gate, snapEvery: 30, tenants: true, shards: 2, followerShards: 1}, 0)},
	{"TestTenantReplicationEquivalence", "primary1-follower4", replicate(world{policy: gate, snapEvery: 30, tenants: true, shards: 1, followerShards: 4}, 0)},
	{"TestMixedProtocolReplication", "carbon-gate", replicate(world{policy: gate, wire: wireMixed}, 0)},

	{"TestReplicationChaos", "greenest-first", chaos},
	{"TestJournaledRestartUnderLoad", "greenest-first", restartUnderLoad},
	{"TestConcurrentClientsUnderStepping", "", clientsUnderStepping},
	{"TestConcurrentSubmitters", "", concurrentSubmitters},
	{"TestTenantIsolationChaos", "", tenantIsolation},
	{"TestFailoverPromotion", "carbon-gate", failover},

	// The partitioned fleet loses each of its five processes in turn.
	{"TestPartitionedKillAnyOne", "gateway", killAnyOne("gateway")},
	{"TestPartitionedKillAnyOne", "p0-primary", killAnyOne("p0-primary")},
	{"TestPartitionedKillAnyOne", "p0-standby", killAnyOne("p0-standby")},
	{"TestPartitionedKillAnyOne", "p1-primary", killAnyOne("p1-primary")},
	{"TestPartitionedKillAnyOne", "p1-standby", killAnyOne("p1-standby")},
}

func init() {
	schedules = append(schedules, onlineEquivalence()...)
	schedules = append(schedules, partitionedEquivalence()...)
}

func TestCrashRecoveryEquivalence(t *testing.T)       { runSchedules(t) }
func TestTenantCrashRecoveryEquivalence(t *testing.T) { runSchedules(t) }
func TestMixedProtocolEquivalence(t *testing.T)       { runSchedules(t) }
func TestRecoveryAfterCleanShutdown(t *testing.T)     { runSchedules(t) }
func TestReplicationPrefixConsistency(t *testing.T)   { runSchedules(t) }
func TestMetricsCarbonSavedAfterRestart(t *testing.T) { runSchedules(t) }
func TestReplicationEquivalence(t *testing.T)         { runSchedules(t) }
func TestTenantReplicationEquivalence(t *testing.T)   { runSchedules(t) }
func TestMixedProtocolReplication(t *testing.T)       { runSchedules(t) }
func TestReplicationChaos(t *testing.T)               { runSchedules(t) }
func TestJournaledRestartUnderLoad(t *testing.T)      { runSchedules(t) }
func TestConcurrentClientsUnderStepping(t *testing.T) { runSchedules(t) }
func TestConcurrentSubmitters(t *testing.T)           { runSchedules(t) }
func TestTenantIsolationChaos(t *testing.T)           { runSchedules(t) }
func TestFailoverPromotion(t *testing.T)              { runSchedules(t) }
func TestPartitionedKillAnyOne(t *testing.T)          { runSchedules(t) }
func TestOnlineEquivalence(t *testing.T)              { runSchedules(t) }
func TestPartitionedEquivalence(t *testing.T)         { runSchedules(t) }

// TestFaultSchedules runs 16 seeded schedules of one partition and 8 of
// the partitioned fleet (4 of each under -short).
func TestFaultSchedules(t *testing.T) {
	seeds := 16
	if testing.Short() {
		seeds = 4
	}
	for seed := 1; seed <= seeds; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			reproOnFailure(t)
			w, ops := seeded(uint64(seed))
			c := newCluster(t, w)
			for i, o := range ops {
				c.op = fmt.Sprintf("op %d %s", i, o.name)
				o.do(c)
			}
			c.op = "check"
			c.check()
		})
	}
	t.Run("partitioned", func(t *testing.T) {
		for seed := 1; seed <= max(seeds/2, 4); seed++ {
			t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
				reproOnFailure(t)
				w, ops := seededPartitioned(uint64(seed))
				f := newPartitioned(t, w)
				for i, o := range ops {
					f.setOp(fmt.Sprintf("op %d %s", i, o.name))
					o.do(f)
				}
				f.check()
			})
		}
	})
}

// runSchedules runs the table's schedules for the test t is, each as a
// subtest of its name, or as the test itself when it has none.
func runSchedules(t *testing.T) {
	for _, s := range schedules {
		switch {
		case s.test != t.Name():
		case s.name == "":
			reproOnFailure(t)
			s.run(t)
		default:
			t.Run(s.name, func(t *testing.T) {
				reproOnFailure(t)
				s.run(t)
			})
		}
	}
}

// reproOnFailure makes the last line of a failing test the command that
// reruns it alone.
func reproOnFailure(t *testing.T) {
	t.Cleanup(func() {
		if t.Failed() {
			t.Logf("repro: go test ./internal/schedd -run '%s$'", t.Name())
		}
	})
}

// op is one step of a seeded schedule on a cluster or on the
// partitioned fleet.
type op[C any] struct {
	name string
	do   func(C)
}

// seeded draws a schedule from the seed: a two-day world, then for
// every hour its clock and arrivals and, now and then, a fault.
func seeded(seed uint64) (world, []op[*cluster]) {
	r := rng.New(seed)
	w := world{
		policy:    policies[r.Intn(len(policies))],
		snapEvery: []int{0, 12, 30}[r.Intn(3)],
		tenants:   r.Intn(2) == 0,
		wire:      wireMode(r.Intn(3)),
		horizon:   48,
	}
	var ops []op[*cluster]
	add := func(name string, do func(*cluster)) { ops = append(ops, op[*cluster]{name, do}) }
	followers := 0
	for h := 0; h < w.hours(); h++ {
		add(fmt.Sprintf("at(%d)", h), func(c *cluster) { c.at(h) })
		add("submit", (*cluster).submit)
		switch roll := r.Intn(40); {
		case roll == 0:
			frac, torn, flip := r.Float64(), []int64{0, 3, 11}[r.Intn(3)], r.Intn(3) == 0
			add(fmt.Sprintf("crash(%.2f+%d, flip %v)", frac, torn, flip), func(c *cluster) {
				c.crash(func(b []int64) tear {
					i, size := int(frac*float64(len(b))), b[len(b)-1]
					switch {
					case flip && i < len(b)-1:
						return tear{b[i] + 8, garbled} // the record's type byte
					case b[i]+torn > size:
						// Past the end: the file's length outran its data.
						return tear{size, zeroFrom}
					}
					return tear{b[i] + torn, cutAt}
				})
			})
		case roll == 1:
			add("restart", (*cluster).restart)
		case roll <= 3 && followers < 2:
			followers++
			add("startFollower", func(c *cluster) { c.startFollower(FollowerConfig{}, false) })
		case roll <= 5 && followers > 0:
			i := r.Intn(followers)
			add(fmt.Sprintf("cutLink(%d)", i), func(c *cluster) { c.cutLink(i) })
		case roll <= 7 && followers > 0:
			i := r.Intn(followers)
			add(fmt.Sprintf("restartTail(%d)", i), func(c *cluster) { c.restartTail(i) })
		case roll == 8 && followers > 0:
			i := r.Intn(followers)
			followers = 0
			add(fmt.Sprintf("promote(%d)", i), func(c *cluster) { c.promote(i) })
		case roll <= 12:
			add("settle", (*cluster).settle)
		}
	}
	return w, ops
}

// seededPartitioned draws a partitioned schedule from the seed: a
// two-day fleet, then for every hour its clock and arrivals and, now
// and then, a fault — kill -9 of any of the five processes that is up
// and its heal, a planned promotion or a gateway restart. A partition
// loses its standby at most once, by a kill or a promotion, and then
// keeps its primary: the gateway knows no third endpoint for it.
func seededPartitioned(seed uint64) (world, []op[*partitioned]) {
	r := rng.New(seed)
	w := world{
		policy:    policies[r.Intn(len(policies))],
		snapEvery: []int{0, 12, 30}[r.Intn(3)],
		wire:      wireMode(r.Intn(3)),
		horizon:   48,
		jobs:      40,
	}
	var ops []op[*partitioned]
	add := func(name string, do func(*partitioned)) { ops = append(ops, op[*partitioned]{name, do}) }
	kill := func(node string) {
		add("kill("+node+")", func(f *partitioned) { f.kill(node) })
		add("heal("+node+")", func(f *partitioned) { f.heal(node) })
	}
	standby := []bool{true, true}
	for h := 0; h < w.hours(); h++ {
		add(fmt.Sprintf("at(%d)", h), func(f *partitioned) { f.at(h) })
		add("submit", (*partitioned).submit)
		switch roll, p := r.Intn(30), r.Intn(2); {
		case roll == 0:
			kill("gateway")
		case roll == 1:
			add("startGateway", (*partitioned).startGateway)
		case roll <= 5 && standby[p]:
			standby[p] = false
			kill(fmt.Sprintf("p%d-%s", p, []string{"primary", "standby"}[roll%2]))
		case roll == 6 && standby[p]:
			standby[p] = false
			add(fmt.Sprintf("promote(%d)", p), func(f *partitioned) { f.parts[p].promote(0) })
		case roll <= 10:
			add("settle", (*partitioned).settle)
		}
	}
	return w, ops
}

// plain runs the world uninterrupted.
func plain(w world) func(*testing.T) {
	return func(t *testing.T) {
		c := newCluster(t, w)
		c.run(0, w.hours())
		c.check()
	}
}

// cutSweep crashes the world's finished reference run at a sweep of
// journal tears and checks each recovery. The full sweep cuts at every
// record boundary (every ninth under -short) and 3 and 11 bytes past it
// — torn in the length prefix and in the payload — garbles each
// record's type byte with the records after it intact, and zero-fills
// the journal from the boundary on; the coarse sweep tears at a dozen
// points of those kinds. Every sweep zero-fills past the journal's end.
// A tear inside a record, or zeros from its start, must recover what
// the cut at the record's start does, so only the cuts run on and
// drain; and as every recovery rotates to a fresh generation, only the
// cuts at the journal's ends and at every ninth boundary check the
// final directory too.
func cutSweep(w world, full bool) func(*testing.T) {
	return func(t *testing.T) {
		ref := referenceOf(t, w, true)
		b := ref.bounds
		n, size := len(b), b[len(b)-1]
		tears := map[tear]bool{{0, cutAt}: true, {1, cutAt}: true, {size - 1, cutAt}: true, {size, cutAt}: true, {size, zeroFrom}: true}
		if full {
			stride := 1
			if testing.Short() {
				stride = 9
			}
			for i := 0; i < n-1; i += stride {
				for _, tr := range []tear{{b[i], cutAt}, {b[i] + 3, cutAt}, {b[i] + 11, cutAt}, {b[i] + 8, garbled}, {b[i], zeroFrom}} {
					tears[tr] = true
				}
			}
		} else {
			for _, cut := range []int64{size / 5, size / 2, b[n/4], b[n/2], b[n/2] + 3, b[n/3] + 3, b[3*n/4] + 11} {
				tears[tear{cut, cutAt}] = true
			}
			tears[tear{b[n/3] + 8, garbled}], tears[tear{b[2*n/3] + 8, garbled}] = true, true
			tears[tear{b[n/2], zeroFrom}] = true
		}
		sawSnapshot, sawTorn := false, false
		for tr := range tears {
			i := slices.Index(b, tr.at)
			switch {
			case tr.at > size:
			case tr.kind != cutAt || tr.at != 0 && i < 0:
				ref.bootTorn(t, w, tr)
				sawTorn = true
			default:
				c := ref.fork(t, w)
				c.op = fmt.Sprintf("%s of %d", tr, size)
				rec := c.recoverFrom(ref.files, tr)
				sawSnapshot = sawSnapshot || rec.RecoveredSnapshotHour > 0
				c.shallow = tr.at != 0 && tr.at != size && i%9 != 0
				c.redrive()
				c.check()
			}
		}
		if w.snapEvery > 0 && !sawSnapshot {
			t.Error("no cut exercised a mid-run snapshot restore")
		}
		if !sawTorn {
			t.Error("no cut exercised a torn journal tail")
		}
	}
}

// savedAfterRestart cuts a run's journal halfway, past its one mid-run
// snapshot: check then holds the recovered primary's carbon-saved gauge
// to the reference's savings from the snapshot's hour on — the hours
// this process stepped, replayed or live, and none the snapshot held.
func savedAfterRestart(t *testing.T) {
	w := world{policy: sched.GreenestFirst{}, snapEvery: 50}
	ref := referenceOf(t, w, true)
	c := ref.fork(t, w)
	rec := c.recoverFrom(ref.files, tear{ref.bounds[len(ref.bounds)/2], cutAt})
	if rec.RecoveredSnapshotHour == 0 || rec.ReplayedRecords == 0 {
		t.Fatalf("weak fixture: recovery %+v neither restored a mid-run snapshot nor replayed", rec)
	}
	if from, all := ref.savedFrom(rec.RecoveredSnapshotHour), ref.savedFrom(0); from == 0 || from == all {
		t.Fatalf("weak fixture: saved %v from hour %d on, %v in all", from, rec.RecoveredSnapshotHour, all)
	}
	c.redrive()
	c.check()
}

// replicate runs the world in lock-step with a follower started before
// hour lateAt.
func replicate(w world, lateAt int) func(*testing.T) {
	return func(t *testing.T) {
		c := newCluster(t, w)
		c.lockstep = true
		for h := 0; h < w.hours(); h++ {
			if h == lateAt {
				c.startFollower(FollowerConfig{}, false)
			}
			c.run(h, h+1)
		}
		c.check()
	}
}

// shardAxis runs replicate with Config.Shards 1 and 4 on both sides; -short
// keeps one run per flavour.
func shardAxis(w world, lateAt int) func(*testing.T) {
	return func(t *testing.T) {
		for _, n := range []int{1, 4} {
			if testing.Short() && n == 1 && w.snapEvery == 0 && w.policy.Name() != "fifo" {
				continue
			}
			w.shards = n
			t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
				reproOnFailure(t)
				replicate(w, lateAt)(t)
			})
		}
	}
}

// chaos free-runs the primary while one goroutine cuts the follower's
// link and restarts its tail at whatever stream offset it is at, and
// another reads the follower beside its apply loop. The invariant is
// convergence: check settles the follower onto the primary's image.
func chaos(t *testing.T) {
	w := world{policy: sched.GreenestFirst{}, snapEvery: 48, horizon: 24 * 8, slots: 8, jobs: 80}
	if testing.Short() {
		w.horizon = 24 * 4
	}
	c := newCluster(t, w)
	f := c.startFollower(FollowerConfig{}, false)
	var (
		wg       sync.WaitGroup
		done     = make(chan struct{})
		restarts int
		readErr  error
	)
	wg.Add(2)
	go func() {
		defer wg.Done()
		src := rng.New(7)
		for {
			select {
			case <-done:
				return
			case <-time.After(time.Duration(500+src.Intn(2500)) * time.Microsecond):
			}
			if src.Intn(2) == 0 {
				c.cutLink(0)
			} else {
				c.restartTail(0)
				restarts++
			}
		}
	}()
	go func() {
		defer wg.Done()
		hc := f.ts.Client()
		for {
			select {
			case <-done:
				return
			default:
			}
			resp, err := hc.Get(f.ts.URL + "/v1/stats")
			if err != nil {
				readErr = err
				return
			}
			lag := resp.Header.Get("X-Replication-Lag-Hours")
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if n, err := strconv.Atoi(lag); err != nil || n < 0 {
				readErr = fmt.Errorf("bad X-Replication-Lag-Hours %q", lag)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	for h := 0; h < w.hours(); h++ {
		c.run(h, h+1)
		time.Sleep(300 * time.Microsecond)
	}
	close(done)
	wg.Wait()
	if readErr != nil {
		t.Fatal(readErr)
	}
	if cuts := f.proxy.cuts.Load(); cuts == 0 || restarts == 0 {
		t.Fatalf("chaos did not bite: %d cuts, %d tail restarts", cuts, restarts)
	}
	c.settle()
	if st := f.srv.role.Load().session.tail.Stats(); st.Reconnects == 0 {
		t.Errorf("no reconnects recorded although connections were cut: %+v", st)
	}
	c.check()
}

// onlineEquivalence is TestOnlineEquivalence: each policy's 120-job,
// 15-day world run uninterrupted over each wire and three values of the
// deprecated Config.Shards, which must stay a no-op, so check holds the
// service to sched's offline fleet (invariant 3) for every policy on
// both wires. -short runs shards=1 only. The directory invariants are
// the other schedules' to check.
func onlineEquivalence() []schedule {
	var out []schedule
	for _, p := range policies {
		for _, v := range []struct {
			shards int
			wire   wireMode
		}{{1, wireJSON}, {4, wireJSON}, {16, wireJSON}, {1, wireBinary}, {16, wireBinary}} {
			w := world{policy: p, shards: v.shards, wire: v.wire, horizon: 24 * 15, slots: 20, jobs: 120}
			out = append(out, schedule{"TestOnlineEquivalence", fmt.Sprintf("%s/shards=%d/%v", p.Name(), v.shards, v.wire), func(t *testing.T) {
				if testing.Short() && v.shards != 1 {
					t.Skip("-short runs shards=1 only")
				}
				c := newCluster(t, w)
				c.shallow, c.history = true, nil
				c.run(0, w.hours())
				c.check()
			}})
		}
	}
	return out
}

// partitionedEquivalence is TestPartitionedEquivalence: N partitions
// behind the gateway must schedule exactly like N independent fleets,
// one per region group. The stream over eight regions runs through 1, 2
// and 4 partitions for every policy on JSON, for spatiotemporal at 2 and
// 4 on the binary wire too, and with a fair queue per partition under
// enough slot pressure for fair order to change placements; check holds
// each partition to sched's offline fleet over its regions. -short runs
// the binary rows only: 2 and 4 partitions, tenancy on and off.
func partitionedEquivalence() []schedule {
	var out []schedule
	w := world{regions: 8, horizon: 24 * 5, slots: 12, jobs: 140}
	row := func(name string, w world) {
		out = append(out, schedule{"TestPartitionedEquivalence", name, func(t *testing.T) {
			if testing.Short() && w.wire != wireBinary {
				t.Skip("-short runs the binary rows only")
			}
			t.Parallel()
			changed := !w.tenants
			for i := 0; !changed && i < w.partitions; i++ {
				pw := w.part(i)
				fair, _ := offline(t, pw, pw.workload(t), true)
				plain, _ := offline(t, pw, pw.workload(t), false)
				changed = !slices.Equal(fair, plain)
			}
			if !changed {
				t.Fatal("no placement changes with the fair queue off: the slot pressure is too low for fair order to matter")
			}
			f := newPartitioned(t, w)
			for _, c := range f.parts {
				c.shallow, c.history = true, nil
			}
			f.run(0, w.hours())
			f.check()
		}})
	}
	for _, p := range policies {
		for _, n := range []int{1, 2, 4} {
			w.policy, w.partitions, w.wire = p, n, wireJSON
			row(fmt.Sprintf("%s/partitions=%d/json", p.Name(), n), w)
			if p == spatio && n > 1 {
				w.wire = wireBinary
				row(fmt.Sprintf("%s/partitions=%d/binary", p.Name(), n), w)
			}
		}
	}
	w.tenants, w.slots = true, 6
	for _, p := range []sched.Policy{sched.FIFO{}, spatio} {
		for _, n := range []int{2, 4} {
			w.policy, w.partitions, w.wire = p, n, []wireMode{wireJSON, wireBinary}[n/4]
			row(fmt.Sprintf("tenants/%s/partitions=%d/%v", p.Name(), n, w.wire), w)
		}
	}
	return out
}

// loadPair is worker w's i-th request of the stepping loads: two auto-id
// jobs, one from each region.
func loadPair(w, i int) []JobRequest {
	return []JobRequest{
		{Origin: "CLEAN", LengthHours: 1 + (w+i)%3, SlackHours: 48, Interruptible: true, Migratable: i%2 == 0},
		{Origin: "DIRTY", LengthHours: 1 + (w+i)%4, SlackHours: 48, Interruptible: i%3 != 0, Migratable: true},
	}
}

// drainAll drains the run and requires all total jobs acked and
// completed, by the Result and by the stats counters alike.
func (c *cluster) drainAll(total int) StatsResponse {
	c.t.Helper()
	c.drain()
	st := c.primary.srv.stats()
	if len(c.acked) != total || c.result.Completed != total || st.Submitted != total || st.Completed != total || st.Unresolved != 0 {
		c.fatalf("%d acked, %d completed, stats %+v; want all %d completed", len(c.acked), c.result.Completed, st, total)
	}
	return st
}

// wantNoRefusal fails the run on any request a load had refused.
func (c *cluster) wantNoRefusal(refused []refusal) {
	c.t.Helper()
	for _, r := range refused {
		c.fatalf("load: %v", r.err)
	}
}

// restartUnderLoad: concurrent submitters, with wal.SyncBatch and a
// snapshot every 2 hours, through a clean restart and a second round of
// load, then a drain that must account for every acked job exactly
// once, completed.
func restartUnderLoad(t *testing.T) {
	c := newCluster(t, world{policy: sched.GreenestFirst{}, snapEvery: 2, syncBatch: true, horizon: 24 * 20, slots: 60})
	c.wantNoRefusal(c.load(6, 15, 8, loadPair))
	c.restart()
	c.wantNoRefusal(c.load(6, 15, 8, loadPair))
	if st := c.drainAll(2 * 6 * 15 * 2); st.Durability == nil || st.Durability.Generation == 0 {
		t.Fatalf("durability = %+v", st.Durability)
	}
	c.check()
}

// clientsUnderStepping is the race and stress regression for the
// service's lock structure: six submitters beside a clock that runs 10
// hours and a reader; the bookkeeping must account for every acked job.
func clientsUnderStepping(t *testing.T) {
	c := newCluster(t, world{policy: sched.GreenestFirst{}, horizon: 24 * 20, slots: 60})
	c.wantNoRefusal(c.load(6, 20, 10, loadPair))
	c.drainAll(6 * 20 * 2)
	c.check()
}

// concurrentSubmitters: twenty one-job submitters at once.
func concurrentSubmitters(t *testing.T) {
	c := newCluster(t, world{policy: sched.FIFO{}, slots: 200})
	c.wantNoRefusal(c.load(20, 1, 3, func(int, int) []JobRequest { return []JobRequest{cjob(1, 24)} }))
	c.drainAll(20)
	c.check()
}

// tenantIsolation: concurrent submitters for four tenants, one of them
// abusive, over both wires, in one fleet hour. The well-behaved tenants
// are left untouched — every submission admitted and completed — while
// the abusive one gets exactly its quota of 3 and a 429 for the rest.
func tenantIsolation(t *testing.T) {
	const perTenant = 3 * 10
	c := newCluster(t, world{policy: sched.FIFO{}, slots: 200, tenants: true})
	names := []string{"web", "batchy", "spot", "quotal"}
	refusals := c.load(4*3, 10, 0, func(w, _ int) []JobRequest { return []JobRequest{tjob(names[w%4])} })
	for _, r := range refusals {
		if r.jobs[0].Tenant != "quotal" {
			t.Fatalf("well-behaved tenant %q rejected: %v", r.jobs[0].Tenant, r.err)
		}
		wantRefused(t, "abusive tenant rejection", r.err, refused(429, "quota exceeded", 3600))
	}
	if len(refusals) != perTenant-3 {
		t.Fatalf("%d of quotal's %d refused, want all but its quota of 3", len(refusals), perTenant)
	}
	st := c.drainAll(3*perTenant + 3)
	for _, name := range names {
		want := perTenant
		if name == "quotal" {
			want = 3
		}
		if e := tenantEntry(t, st, name); e.Submitted != want || e.Completed != want {
			t.Fatalf("tenant %q entry = %+v, want %d submitted and completed", name, e, want)
		}
	}
	c.check()
}

// failover is the story end to end: writes through a failover client
// configured follower-first, which the 421 lands on the primary; the
// 421 contract itself; the caught-up standby's lag and applied-records
// series; the primary killed and the follower promoted
// over HTTP; the same client writing on through the switch with no
// acked job lost; the promoted primary's lineage; and a second
// generation of follower bootstrapping from it.
func failover(t *testing.T) {
	w := world{policy: gate, snapEvery: 30}
	c := newCluster(t, w)
	f := c.startFollower(FollowerConfig{}, false)
	fo, err := NewFailoverClient([]string{f.ts.URL, c.primary.ts.URL}, nil)
	if err != nil {
		t.Fatal(err)
	}
	c.via = fo
	half := w.hours() / 2
	c.run(0, half)
	if got := c.primary.srv.fleet.Jobs(); got != len(c.acked) {
		t.Fatalf("the primary admitted %d jobs, %d were acked (redirect failed?)", got, len(c.acked))
	}

	h, body, err := roundTrip(t, http.MethodPost, f.ts.URL+JSONWire.Route, JSONWire.ContentType, oneJSON)
	wantRefused(t, "a write to the follower", err, refused(421, "read-only follower", 0))
	var e ErrorResponse
	if json.Unmarshal(body, &e) != nil || h.Get("X-Replication-Lag-Hours") == "" || e.Primary != f.proxy.URL() {
		t.Fatalf("a write to the follower: lag header %q, primary hint %q; want a lag, %q",
			h.Get("X-Replication-Lag-Hours"), e.Primary, f.proxy.URL())
	}

	// Caught up, the standby scrapes no lag and the records it applied.
	c.settle()
	metric := scrape(t, f.client)
	if lag, applied := metric("schedd_replication_lag_hours"), metric("repl_records_applied_total"); lag != 0 || applied == 0 {
		t.Fatalf("the caught-up standby scrapes a lag of %v hours and %v records applied", lag, applied)
	}

	c.promote(0)
	c.run(half, w.hours())
	stats, err := f.client.Stats(c.ctx)
	if err != nil {
		t.Fatal(err)
	}
	if d := stats.Durability; d == nil || !d.Recovered || d.Generation == 0 {
		t.Fatalf("durability lineage = %+v, want recovered with a generation", d)
	}
	if r := stats.Replication; r == nil || r.Role != "primary" || !r.Promoted {
		t.Fatalf("replication block = %+v", r)
	}
	c.startFollower(FollowerConfig{}, false)
	c.check()
}

// killAnyOne is the partitioned story: half the arrivals through the
// gateway with every process up, which must split batches; both
// standbys settled; victim killed -9 and healed; the rest of the
// arrivals through the same gateway URL; and check.
func killAnyOne(victim string) func(*testing.T) {
	return func(t *testing.T) {
		w := world{policy: gate, snapEvery: 30, jobs: 80}
		f := newPartitioned(t, w)
		half := w.hours() / 2
		f.setOp("phase 1")
		f.run(0, half)
		if scrape(t, f.client)("gateway_split_submits_total") == 0 {
			f.fatalf("no batch split at the gateway")
		}
		f.setOp("kill(" + victim + ")")
		f.settle()
		f.kill(victim)
		f.heal(victim)
		f.setOp("phase 2")
		f.run(half, w.hours())
		f.check()
	}
}

// --- lifecycle edges ---

// pair is a durable primary and one started follower with its own data
// dir, in a 20-day world.
func pair(t *testing.T, policy sched.Policy, fcfg FollowerConfig) (*cluster, *node) {
	t.Helper()
	c := newCluster(t, world{policy: policy, snapEvery: 48, horizon: 24 * 20, slots: 20})
	return c, c.startFollower(fcfg, false)
}

// submitJobs posts n small auto-id jobs through client.
func submitJobs(t *testing.T, client *Client, n int) {
	t.Helper()
	for range n {
		if _, err := client.Submit(context.Background(), JobRequest{Origin: "CLEAN", LengthHours: 3, SlackHours: 24, Interruptible: true}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPromoteUnderConcurrentReads: promotion on a live, serving
// follower — stats polls in flight — must not race the installation of
// the durable state or the recovery lineage (run under -race).
func TestPromoteUnderConcurrentReads(t *testing.T) {
	c, f := pair(t, sched.FIFO{}, FollowerConfig{})
	submitJobs(t, c.primary.client, 1)
	c.settle()

	stop := make(chan struct{})
	pollErr := make(chan error, 1)
	go func() {
		defer close(pollErr)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := f.client.Stats(c.ctx); err != nil {
				pollErr <- err
				return
			}
		}
	}()
	time.Sleep(2 * time.Millisecond) // let the poller get going
	if promoted, err := f.srv.Promote(); err != nil || !promoted {
		t.Fatalf("promote = %v, %v", promoted, err)
	}
	close(stop)
	if err := <-pollErr; err != nil {
		t.Fatal(err)
	}
	stats, err := f.client.Stats(c.ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Durability == nil || !stats.Durability.Recovered {
		t.Fatalf("post-promotion durability = %+v", stats.Durability)
	}
}

// TestAutoPromoteOnProbeLoss: a follower with a probe interval promotes
// itself once the primary stops answering.
func TestAutoPromoteOnProbeLoss(t *testing.T) {
	c, f := pair(t, sched.FIFO{}, FollowerConfig{ProbeInterval: 2 * time.Millisecond, ProbeFailures: 3})
	submitJobs(t, c.primary.client, 1)
	c.settle()
	if f.srv.Role() != "follower" {
		t.Fatal("the follower promoted while the primary was healthy")
	}
	c.primary.kill()
	waitUntil(t, "auto-promotion", func() bool { return f.srv.Role() == "primary" })
	if rec := f.srv.Recovery(); !rec.Recovered || rec.RecoveredJobs != 1 {
		t.Fatalf("promoted recovery = %+v", rec)
	}
}

// TestPromoteWithoutDataDir: an in-memory follower can still take over;
// it keeps running without a journal, and its stream endpoints refuse
// cleanly.
func TestPromoteWithoutDataDir(t *testing.T) {
	c := newCluster(t, world{policy: sched.FIFO{}, horizon: 24 * 10, slots: 4})
	f := c.startFollower(FollowerConfig{}, true)
	submitJobs(t, c.primary.client, 1)
	c.settle()
	if promoted, err := f.srv.Promote(); err != nil || !promoted {
		t.Fatalf("promote = %v, %v", promoted, err)
	}
	if f.srv.fleet.Jobs() != 1 || f.srv.Role() != "primary" {
		t.Fatal("promotion lost state")
	}
	_, _, err := roundTrip(t, http.MethodGet, f.ts.URL+"/v1/repl/snapshot", "", nil)
	wantRefused(t, "snapshot on a journal-less primary", err, refused(404, "", 0))
}

// TestFailedPromotionResumesTail: a promotion that cannot claim the
// follower's data dir (another store holds its flock) fails loudly and
// leaves a working follower — same role, tail resumed from its cursor
// with no re-bootstrap — and succeeds once the directory is free.
func TestFailedPromotionResumesTail(t *testing.T) {
	c, f := pair(t, sched.FIFO{}, FollowerConfig{})
	submitJobs(t, c.primary.client, 1)
	c.settle()

	held, err := wal.OpenStore(f.dir)
	if err != nil {
		t.Fatal(err)
	}
	defer held.Close()
	tail := f.srv.role.Load().session.tail
	bootstraps := tail.Stats().Bootstraps
	if promoted, err := f.srv.Promote(); err == nil || promoted {
		t.Fatalf("promote into a held data dir = %v, %v; want an error", promoted, err)
	}
	if f.srv.Role() != "follower" {
		t.Fatalf("role after a failed promotion = %q", f.srv.Role())
	}
	submitJobs(t, c.primary.client, 1)
	c.settle()
	if got := tail.Stats().Bootstraps; got != bootstraps {
		t.Fatalf("the tail re-bootstrapped (%d -> %d) instead of resuming from its cursor", bootstraps, got)
	}

	if err := held.Close(); err != nil {
		t.Fatal(err)
	}
	if promoted, err := f.srv.Promote(); err != nil || !promoted {
		t.Fatalf("promote into the released data dir = %v, %v", promoted, err)
	}
	submitJobs(t, f.client, 1)
	stats, err := f.client.Stats(c.ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Submitted != 3 {
		t.Fatalf("submitted %d, want 3", stats.Submitted)
	}
	if d := stats.Durability; d == nil || !d.Recovered || d.Generation < 1 {
		t.Fatalf("durability lineage = %+v, want recovered with a generation", d)
	}
}

// TestPromotedPrimaryReboots: a promoted standby is a primary like any
// other — what it journaled after taking authority over its own data
// dir is what a reboot from that directory recovers, byte for byte.
func TestPromotedPrimaryReboots(t *testing.T) {
	c, _ := pair(t, gate, FollowerConfig{})
	const first, second = 12, 9
	submitJobs(t, c.primary.client, first)
	c.at(2)
	c.promote(0)
	submitJobs(t, c.primary.client, second)
	c.at(6)
	c.restart()
	if rec := c.primary.srv.Recovery(); rec.ReplayedRecords < second || rec.RecoveredJobs != first+second {
		t.Fatalf("reboot of the promoted primary: recovery = %+v", rec)
	}
}

// TestClosedFollowerStaysClosed: Close ends replication for good. A
// resumeTail after it — what a failed auto-promotion in the probe loop
// runs — must not restart the tail (a restarted probe loop would join
// the wait group Close is blocked on), and neither may Start.
func TestClosedFollowerStaysClosed(t *testing.T) {
	c, f := pair(t, sched.FIFO{}, FollowerConfig{})
	if err := f.srv.Close(); err != nil {
		t.Fatal(err)
	}
	f.srv.resumeTail()
	f.srv.Start(c.ctx)
	s := f.srv.role.Load().session
	s.runMu.Lock()
	running := s.running
	s.runMu.Unlock()
	if running {
		t.Fatal("the tail runs again after Close")
	}
}
