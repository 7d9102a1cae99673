package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"carbonshift/internal/metrics"
	"carbonshift/internal/rng"
	"carbonshift/internal/sched"
	"carbonshift/internal/schedd"
)

// recovery_s is the median over fresh copies of partition 0's crash
// image: at least minRecoveries of them, and more — up to
// maxRecoveries — until recoveryFloor has been spent, so that a small
// store's millisecond recovery is not judged on three samples.
const (
	minRecoveries = 5
	maxRecoveries = 15
	recoveryFloor = time.Second
)

// onlineSetup is everything the online part needs before the clock
// starts: the world, the booted topology, the job stream, and every
// request pre-built.
type onlineSetup struct {
	spec  onlineSpec
	seed  uint64
	dir   string
	world *world
	jobs  []sched.Job
	// index maps (partition, id offset) back to the stream position.
	index [partitions][]int32
	hours [][][]schedd.JobRequest
	rig   *rig
}

func setupOnline(ctx context.Context, spec onlineSpec, seed uint64, dir string, rec *recorder) (*onlineSetup, error) {
	w, err := buildWorld(ctx, spec)
	if err != nil {
		return nil, err
	}
	jobs, err := buildStream(spec, w, seed, spec.Jobs)
	if err != nil {
		return nil, err
	}
	s := &onlineSetup{spec: spec, seed: seed, dir: dir, world: w, jobs: jobs}
	for i, j := range jobs {
		g := j.ID / idBase
		s.index[g] = append(s.index[g], int32(i))
	}
	s.hours = buildRequests(jobs, spec.ArrivalHours, spec.Batch)
	if s.rig, err = bootRig(rigConfig{spec: spec, world: w, dir: filepath.Join(dir, "data"), rec: rec}); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *onlineSetup) close() error { return s.rig.close() }

// jobOf returns the stream job with the given id, or nil.
func (s *onlineSetup) jobOf(id int) *sched.Job {
	g, k := id/idBase, id%idBase
	if id < 0 || g >= partitions || k >= len(s.index[g]) {
		return nil
	}
	return &s.jobs[s.index[g][k]]
}

// benchClient is one closed-loop caller: a schedd client and the
// single-connection HTTP client under it.
type benchClient struct {
	*schedd.Client
	hc  *http.Client
	url string
}

func (s *onlineSetup) newClients(n int) ([]*benchClient, error) {
	out := make([]*benchClient, n)
	for i := range out {
		c, hc, err := s.rig.newClient()
		if err != nil {
			return nil, err
		}
		out[i] = &benchClient{Client: c, hc: hc, url: s.rig.gwSrv.URL}
	}
	return out, nil
}

// opCount tallies operations attempted and failed, keeping the first
// failure's text for the report.
type opCount struct {
	attempted, failed atomic.Int64
	mu                sync.Mutex
	first             string
}

func (c *opCount) ok() { c.attempted.Add(1) }

func (c *opCount) fail(format string, args ...any) {
	c.attempted.Add(1)
	c.failed.Add(1)
	c.mu.Lock()
	if c.first == "" {
		c.first = fmt.Sprintf(format, args...)
	}
	c.mu.Unlock()
}

// serverCounters are the sums the per-layer rows need from the
// primaries' and the gateway's /metrics registries.
type serverCounters struct {
	fsyncSeconds, fsyncs       float64
	fsyncRecords               float64
	walBytes, walRecords       float64
	stepSeconds, steps         float64
	gatewaySplit, gatewayProxy float64
}

func scrapeRegistry(reg *metrics.Registry) (*metrics.Scrape, error) {
	var buf bytes.Buffer
	if err := reg.WriteTo(&buf); err != nil {
		return nil, err
	}
	return metrics.ParseText(&buf)
}

func (r *rig) counters() (serverCounters, error) {
	var c serverCounters
	for _, n := range r.nodes {
		sc, err := scrapeRegistry(n.primary.Metrics())
		if err != nil {
			return c, err
		}
		c.fsyncSeconds += sc.Sum("wal_fsync_seconds_sum")
		c.fsyncs += sc.Sum("wal_fsync_seconds_count")
		c.fsyncRecords += sc.Sum("wal_fsync_batch_records_sum")
		c.walBytes += sc.Sum("wal_appended_bytes_total")
		c.walRecords += sc.Sum("wal_records_appended_total")
		c.stepSeconds += sc.Sum("schedd_step_latency_seconds_sum")
		c.steps += sc.Sum("schedd_step_latency_seconds_count")
	}
	sc, err := scrapeRegistry(r.gw.Metrics())
	if err != nil {
		return c, err
	}
	c.gatewaySplit = sc.Sum("gateway_split_submits_total")
	c.gatewayProxy = sc.Sum("gateway_proxied_submits_total")
	return c, nil
}

// processUsage is the whole process's resource use, harness included.
type processUsage struct {
	mem runtime.MemStats
	cpu time.Duration
}

func readUsage() processUsage {
	var u processUsage
	runtime.ReadMemStats(&u.mem)
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		u.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	return u
}

// heapMB is HeapInuse after a full collection.
func heapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapInuse) / (1 << 20)
}

// onlineResult is what one replay measured.
type onlineResult struct {
	clients int
	jobs    int
	ops     opCount

	writeWall    time.Duration
	acks         []time.Duration // one per submit request
	hourTicks    []time.Duration // clock tick → first ack after it
	before       processUsage    // around the write phase
	after        processUsage
	heapMB       float64
	counters     serverCounters // at the end of the write phase
	catchup      time.Duration  // last ack → standbys caught up
	bootstrap    time.Duration  // a fresh standby, NewFollower → caught up (traced runs)
	lookups      []time.Duration
	besideDrain  []time.Duration // lookups by a second caller while the drain cranks
	statsPolls   []time.Duration
	scrapes      []time.Duration
	drainWall    time.Duration
	drainHours   int
	recoveryWall []time.Duration
	replayed     int // journal records the recovery replayed
	final        schedd.StatsResponse

	checks []check
	// imageDir[g] is partition g's crash image, which the recovery
	// phase copies afresh for every recovery; liveDigest[g] is the
	// primary's Snapshot digest at the moment it was taken.
	imageDir   [partitions]string
	liveDigest [partitions]string
}

func (r *onlineResult) jobsPerSecond() float64 { return float64(r.jobs) / r.writeWall.Seconds() }

// userFacing are the issue's end-to-end metrics of an online replay.
func (r *onlineResult) userFacing() map[string]float64 {
	acks := summarize(in(time.Microsecond, r.acks))
	return map[string]float64{
		"jobs_per_s":        r.jobsPerSecond(),
		"ack_p50_us":        acks.median(),
		"ack_p99_us":        acks.quantile(0.99),
		"lookup_p50_us":     median(in(time.Microsecond, r.lookups)),
		"drain_hours_per_s": float64(r.drainHours) / r.drainWall.Seconds(),
		"recovery_s":        median(in(time.Second, r.recoveryWall)),
	}
}

// note writes the sample counts and spreads that go with userFacing.
func (r *onlineResult) note(rep *runReport) {
	rep.noteSamples("ack", summarize(in(time.Microsecond, r.acks)), "us")
	rep.noteSamples("lookup", summarize(in(time.Microsecond, r.lookups)), "us")
	rep.noteSamples("lookup beside the drain", summarize(in(time.Microsecond, r.besideDrain)), "us")
	rep.noteSamples("recovery", summarize(in(time.Second, r.recoveryWall)), "s")
	rep.notef("write %.2fs, drain %d h in %.2fs; final: submitted %d completed %d missed %d",
		r.writeWall.Seconds(), r.drainHours, r.drainWall.Seconds(), r.final.Submitted, r.final.Completed, r.final.Missed)
	rep.notef("wal.fsync_ms_mean %.4f (fsync drifts by the minute on the sandbox: compare only interleaved runs)",
		1e3*r.counters.fsyncSeconds/r.counters.fsyncs)
}

// replay runs the write, read, drain and check phases on a booted
// setup, tears the topology down, and then recovers the crash images.
func (s *onlineSetup) replay(ctx context.Context, clients int) (*onlineResult, error) {
	res := &onlineResult{clients: clients, jobs: len(s.jobs)}
	cs, err := s.newClients(clients)
	if err != nil {
		return nil, err
	}
	if err := s.writePhase(ctx, cs, res); err != nil {
		return nil, err
	}
	res.heapMB = heapMB()
	if res.counters, err = s.rig.counters(); err != nil {
		return nil, err
	}
	if err := s.takeCrashImages(res); err != nil {
		return nil, err
	}
	if s.rig.cfg.rec != nil {
		if res.bootstrap, err = s.rig.bootstrapStandby(ctx, 0); err != nil {
			return nil, err
		}
	}
	if err := s.readPhase(ctx, cs, res); err != nil {
		return nil, err
	}
	if err := s.finalChecks(ctx, cs[0], res); err != nil {
		return nil, err
	}
	if err := s.close(); err != nil {
		return nil, fmt.Errorf("rig teardown: %w", err)
	}
	if err := s.recoveryPhase(res); err != nil {
		return nil, err
	}
	return res, nil
}

// writePhase is the closed loop: for each replay hour the harness sets
// the clock, then the clients drain that hour's requests, each waiting
// for its ack before sending the next. The wall clock runs from the
// first tick to the last ack, hour ticks (Step, snapshot rotation)
// included.
func (s *onlineSetup) writePhase(ctx context.Context, cs []*benchClient, res *onlineResult) error {
	rec := s.rig.cfg.rec
	perClient := make([][]time.Duration, len(cs))
	firstAck := make([]time.Duration, len(cs))
	res.before = readUsage()
	t0 := time.Now()
	for h, reqs := range s.hours {
		s.rig.clock.set(h)
		tick := time.Now()
		var next atomic.Int64
		var wg sync.WaitGroup
		for ci, c := range cs {
			firstAck[ci] = 0
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(reqs) {
						return
					}
					req := reqs[i]
					sp := rec.start("client.submit", 0)
					start := time.Now()
					var ack schedd.SubmitResponse
					var err error
					if s.spec.Binary {
						ack, err = c.SubmitBatch(sp.context(ctx), req...)
					} else {
						ack, err = c.Submit(sp.context(ctx), req...)
					}
					end := time.Now()
					sp.end()
					perClient[ci] = append(perClient[ci], end.Sub(start))
					if firstAck[ci] == 0 {
						firstAck[ci] = end.Sub(tick)
					}
					switch {
					case err != nil:
						res.ops.fail("submit at hour %d: %v", h, err)
					case ack.ArrivalHour != h || len(ack.IDs) != len(req) || ack.IDs[0] != *req[0].ID:
						res.ops.fail("submit at hour %d: ack hour %d, %d ids for %d jobs", h, ack.ArrivalHour, len(ack.IDs), len(req))
					default:
						res.ops.ok()
					}
				}
			}()
		}
		wg.Wait()
		s.hours[h] = nil // sent; keep the harness out of heap_mb
		if len(reqs) > 0 {
			first := firstAck[0]
			for _, d := range firstAck[1:] {
				if d != 0 && (first == 0 || d < first) {
					first = d
				}
			}
			res.hourTicks = append(res.hourTicks, first)
		}
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	res.writeWall = time.Since(t0)
	res.after = readUsage()
	for _, ds := range perClient {
		res.acks = append(res.acks, ds...)
	}
	// The async-replication loss window: how long after the last ack the
	// standbys hold everything the primaries acknowledged.
	var err error
	res.catchup, err = s.rig.waitStandbys(ctx)
	return err
}

// takeCrashImages copies the partitions' data directories right after
// the last ack and pins what the live primaries held at that instant.
func (s *onlineSetup) takeCrashImages(res *onlineResult) error {
	for g, n := range s.rig.nodes {
		res.imageDir[g] = filepath.Join(s.dir, fmt.Sprintf("image-p%d", g))
		if err := s.rig.crashImage(g, res.imageDir[g]); err != nil {
			return fmt.Errorf("crash image: %w", err)
		}
		res.liveDigest[g] = digestResult(n.primary.Snapshot())
	}
	return nil
}

// lookupIDs samples n acked ids by seed.
func (s *onlineSetup) lookupIDs(n int) []int {
	src := rng.New(s.seed ^ 0x100c4b)
	ids := make([]int, n)
	for i := range ids {
		ids[i] = s.jobs[src.Intn(len(s.jobs))].ID
	}
	return ids
}

// lookup is one GET /v1/jobs/{id} through the gateway, recorded under
// the given span name and checked against the stream.
func (s *onlineSetup) lookup(ctx context.Context, c *benchClient, span string, id int, res *onlineResult) time.Duration {
	sp := s.rig.cfg.rec.start(span, 0)
	t0 := time.Now()
	got, err := c.Job(sp.context(ctx), id)
	d := time.Since(t0)
	sp.end()
	want := s.jobOf(id)
	switch {
	case err != nil:
		res.ops.fail("lookup %d: %v", id, err)
	case got.ID != id || got.Origin != want.Origin || got.Tenant != want.Tenant || got.ArrivalHour != want.Arrival:
		res.ops.fail("lookup %d: got job %d from %s at hour %d", id, got.ID, got.Origin, got.ArrivalHour)
	default:
		res.ops.ok()
	}
	return d
}

// readPhase runs the lookups, then the drain — one caller cranks the
// clock hour by hour to the horizon (a lookup in each partition makes
// both step) while a second one keeps looking jobs up, so a Step that
// holds the shard locks longer shows in that series — then the stats
// polls and the metrics scrapes.
func (s *onlineSetup) readPhase(ctx context.Context, cs []*benchClient, res *onlineResult) error {
	ids := s.lookupIDs(s.spec.Lookups)
	perReader := make([][]time.Duration, len(cs))
	var wg sync.WaitGroup
	var next atomic.Int64
	for ri, c := range cs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(ids) || ctx.Err() != nil {
					return
				}
				perReader[ri] = append(perReader[ri], s.lookup(ctx, c, "client.lookup", ids[i], res))
			}
		}()
	}
	wg.Wait()
	for _, ds := range perReader {
		res.lookups = append(res.lookups, ds...)
	}

	reader, err := s.newClients(1)
	if err != nil {
		return err
	}
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ctx.Err() == nil; i++ {
			// Its own span name: these wait behind Step and must not mix
			// into the lookup layers' medians.
			res.besideDrain = append(res.besideDrain, s.lookup(ctx, reader[0], "client.lookup_beside_drain", ids[i%len(ids)], res))
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	crank := [partitions]int{s.jobs[s.index[0][0]].ID, s.jobs[s.index[1][0]].ID}
	t0 := time.Now()
	for h := s.spec.ArrivalHours; h <= s.spec.Horizon; h++ {
		s.rig.clock.set(h)
		for _, id := range crank {
			if _, err := cs[0].Job(ctx, id); err != nil {
				res.ops.fail("drain crank at hour %d: %v", h, err)
			} else {
				res.ops.ok()
			}
		}
		res.drainHours++
	}
	res.drainWall = time.Since(t0)
	close(stop)
	wg.Wait()

	rec := s.rig.cfg.rec
	for i := 0; i < s.spec.StatsPolls; i++ {
		sp := rec.start("client.stats", 0)
		t0 := time.Now()
		st, err := cs[0].Stats(sp.context(ctx))
		res.statsPolls = append(res.statsPolls, time.Since(t0))
		sp.end()
		if err != nil || st.Submitted != len(s.jobs) {
			res.ops.fail("stats poll: submitted %d, err %v", st.Submitted, err)
		} else {
			res.ops.ok()
		}
	}
	for i := 0; i < max(s.spec.StatsPolls/10, 2); i++ {
		sp := rec.start("client.metrics", 0)
		t0 := time.Now()
		err := cs[0].scrape(sp.context(ctx))
		res.scrapes = append(res.scrapes, time.Since(t0))
		sp.end()
		if err != nil {
			res.ops.fail("metrics scrape: %v", err)
		} else {
			res.ops.ok()
		}
	}
	return ctx.Err()
}

// scrape fetches the gateway's merged GET /metrics.
func (c *benchClient) scrape(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.url+"/metrics", nil)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	return nil
}

// recoveryPhase times schedd.New on fresh copies of each crash image —
// snapshot restore plus journal replay (which re-steps the fleet)
// until the server is ready to serve — and checks the recovered state
// against what the live primary held when the image was taken.
// Partition 0 is the timed one; partition 1 is recovered once, for the
// check.
func (s *onlineSetup) recoveryPhase(res *onlineResult) error {
	clock := &hourClock{start: s.world.set.Start()}
	clock.set(s.spec.ArrivalHours - 1)
	dir := filepath.Join(s.dir, "recover")
	for g := 0; g < partitions; g++ {
		set, clusters, cfg, err := partitionOf(s.spec, s.world, g, dir)
		if err != nil {
			return err
		}
		var spent time.Duration
		for i := 0; i == 0 || g == 0 && i < maxRecoveries && (i < minRecoveries || spent < recoveryFloor); i++ {
			if err := copyDir(res.imageDir[g], dir); err != nil {
				return err
			}
			t0 := time.Now()
			srv, err := schedd.New(set, clusters, cfg, schedd.WithClock(clock.now), schedd.WithGateClock(clock.now))
			d := time.Since(t0)
			if err != nil {
				return fmt.Errorf("recovery of partition %d: %w", g, err)
			}
			spent += d
			if g == 0 {
				res.recoveryWall = append(res.recoveryWall, d)
				res.replayed = srv.Recovery().ReplayedRecords
			}
			if i == 0 {
				got := digestResult(srv.Snapshot())
				res.check(fmt.Sprintf("recovered partition %d equals the live primary at the crash image", g),
					got == res.liveDigest[g] && srv.Recovery().Recovered, "digest %s vs live %s", got[:12], res.liveDigest[g][:12])
			}
			if err := srv.Close(); err != nil {
				return err
			}
			if err := os.RemoveAll(dir); err != nil {
				return err
			}
		}
	}
	return nil
}

// layerMetrics fills in the per-layer rows that come from the replay
// itself: the servers' counters at the end of the write phase, the hour
// ticks, recovery, replication, and the process's resource use over the
// write phase.
func (r *onlineResult) layerMetrics(out map[string]float64) {
	jobs, c := float64(r.jobs), r.counters
	out["gateway.split_frac"] = c.gatewaySplit / (c.gatewaySplit + c.gatewayProxy)
	out["schedd.step_ms_mean"] = 1e3 * c.stepSeconds / c.steps
	out["schedd.steps"] = c.steps
	ticks := summarize(in(time.Millisecond, r.hourTicks))
	out["schedd.hour_tick_ms_p50"] = ticks.median()
	out["schedd.hour_tick_ms_max"] = ticks.max
	out["schedd.recovery_records_per_s"] = float64(r.replayed) / median(in(time.Second, r.recoveryWall))
	out["wal.fsync_ms_mean"] = 1e3 * c.fsyncSeconds / c.fsyncs
	out["wal.fsyncs_per_job"] = c.fsyncs / jobs
	out["wal.records_per_fsync_mean"] = c.fsyncRecords / c.fsyncs
	out["wal.bytes_per_job"] = c.walBytes / jobs
	out["schedd.lookup_beside_drain_us_p50"] = median(in(time.Microsecond, r.besideDrain))
	out["repl.catchup_ms"] = millis(r.catchup)
	out["repl.bootstrap_s"] = r.bootstrap.Seconds()

	b, a := r.before, r.after
	out["runtime.mallocs_per_job"] = float64(a.mem.Mallocs-b.mem.Mallocs) / jobs
	out["runtime.alloc_bytes_per_job"] = float64(a.mem.TotalAlloc-b.mem.TotalAlloc) / jobs
	out["runtime.gc_pause_ms_total"] = float64(a.mem.PauseTotalNs-b.mem.PauseTotalNs) / 1e6
	out["runtime.gc_cycles"] = float64(a.mem.NumGC - b.mem.NumGC)
	out["runtime.cpu_s_per_kjob"] = (a.cpu - b.cpu).Seconds() / (jobs / 1e3)
	out["runtime.peak_rss_mb"] = peakRSSMB()
}

// peakRSSMB is VmHWM from /proc/self/status: the whole process's peak
// resident set, harness included. 0 where /proc has no such line.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			fmt.Sscanf(strings.TrimSpace(rest), "%f", &kb)
			return kb / 1024
		}
	}
	return 0
}
