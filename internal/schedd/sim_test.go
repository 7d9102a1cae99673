package schedd

// The fault harness: one in-process cluster that every test of this
// package that serves a Server over HTTP drives — crash, restart,
// replication, chaos, failover, load and admission alike — and the
// partitioned fleet, one cluster per partition behind the gateway,
// built from it: the one driver of a partitioned topology.
//
// A cluster runs one world — policy, snapshot cadence, tenancy on or
// off, and the wire its arrivals travel (JSON, binary, or the two
// alternating per chunk). A primary, durable unless the world says
// otherwise, serves it on a replay clock every node shares and a gate
// clock of the cluster's own; each follower has its own data dir and
// tails the primary over a link the test cuts, retargets and closes. A
// schedule is a sequence of ops on the cluster (fault_test.go holds the
// table of them, admission_test.go the rows of requests and answers):
//
//	at(h)            set the clock to h and poll stats, which steps the fleet
//	submit           send the hour's arrivals, two a request, ids pinned
//	                 but every third, which the server's counter assigns
//	crash(tear)      copy the data dir with the newest journal cut short,
//	                 one byte garbled or its tail zero-filled, boot a new
//	                 primary from the copy and re-drive what the tear lost
//	restart          close the primary cleanly and boot it again
//	load(...)        concurrent submitters beside a reader that drives the
//	                 clock and polls stats and jobs
//	cutLink(i)       close follower i's connections
//	restartTail(i)   stop follower i's tail and start it at its cursor
//	startFollower    boot a follower; it bootstraps from the newest snapshot
//	promote(i)       once follower i has caught up, kill the primary and
//	                 promote i over HTTP
//	settle           wait for every follower to apply all the primary
//	                 journaled, then compare their images
//	drain            run the world out
//
// After every schedule, check asserts the four invariants:
//
//  1. Id conservation: every acked id is in exactly one final state. A
//     crash may lose only admissions at or after the hour it recovers
//     to, and those are re-driven.
//  2. Followers are prefixes of their primary: at every settle, each
//     follower's server image (id counter and fleet image) equals the
//     primary's byte for byte, and every prefix of the journal, applied
//     to a fresh server, lands on a state the primary held, in order.
//  3. Placements equal the reference: from the recovered snapshot hour
//     on, the placements, the Result, the final image and the carbon
//     saved equal an uninterrupted run of the same world, whose
//     placements and Result in turn equal sched's offline fleet — every
//     job submitted up front and stepped to Done, as sched.Run does.
//  4. Recovery is idempotent: two reboots from one directory give the
//     same bytes, and boot recovery equals RestoreReplSnapshot plus
//     ApplyReplRecord over the same snapshot and records.
//
// This is the one test file under internal/ that builds a follower,
// cuts a journal (internal/wal's reader tests aside) or serves a
// Server's handler over HTTP; internal/archtest holds it to that.

import (
	"bytes"
	"cmp"
	"context"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"carbonshift/internal/httpx"
	"carbonshift/internal/metrics"
	"carbonshift/internal/repl"
	"carbonshift/internal/sched"
	"carbonshift/internal/tenant"
	"carbonshift/internal/trace"
	"carbonshift/internal/wal"
)

const (
	simHorizon = 24 * 4
	simSlots   = 5
)

// wireMode is how a cluster's arrivals travel.
type wireMode int

const (
	wireJSON   wireMode = iota
	wireBinary          // every chunk over the binary batch route
	wireMixed           // the binary route on every odd chunk
)

// world is what a cluster runs. Zero horizon, slots, jobs and regions
// mean simHorizon, simSlots, 26 jobs and two regions.
type world struct {
	policy    sched.Policy
	snapEvery int
	tenants   bool
	wire      wireMode
	syncBatch bool // journal with wal.SyncBatch instead of wal.SyncNone
	horizon   int
	slots     int
	jobs      int
	// shards sets the deprecated Config.Shards on the primary and its
	// followers. It must stay a no-op, so it is not part of key: a run
	// with any value is held to the one reference of its world.
	shards int
	// regions is how many of the test world's regions (mkSet) it has.
	regions int
	// partitions, when positive (1, 2 or 4), makes the world partition
	// partitionID of a fleet of that many: it owns the regions whose index
	// is partitionID modulo partitions, and the ids from
	// partitionID*idStride.
	partitions, partitionID int
	memory                  bool // the primary keeps no data dir
	// cfg holds the Config values a world sets beyond the fields above:
	// MaxQueue, MaxJobs, Seed, Speedup, TraceSampleEvery, and Tenants when
	// the registry is not tenancyConfig. opts are the primary's options
	// beyond the clocks and the recorder.
	cfg  Config
	opts []Option
}

// idStride separates the partitions' id ranges (Config.IDBase).
const idStride = 1000

func (w world) hours() int { return cmp.Or(w.horizon, simHorizon) }

// regionNames is every region of the world, in index order: CLEAN,
// DIRTY, R02, R03, …
func (w world) regionNames() []string {
	names := []string{"CLEAN", "DIRTY"}
	for r := 2; r < w.regions; r++ {
		names = append(names, fmt.Sprintf("R%02d", r))
	}
	return names
}

// owner is the partition of the world's fleet that owns origin.
func (w world) owner(origin string) int {
	return slices.Index(w.regionNames(), origin) % w.partitions
}

// clusters is the world's clusters: every region's, or its partition's.
func (w world) clusters() []sched.Cluster {
	var cl []sched.Cluster
	for _, r := range w.regionNames() {
		if w.partitions == 0 || w.owner(r) == w.partitionID {
			cl = append(cl, sched.Cluster{Region: r, Slots: cmp.Or(w.slots, simSlots)})
		}
	}
	return cl
}

// set is the world's traces over its clusters' regions.
func (w world) set(t testing.TB) *trace.Set {
	t.Helper()
	var regions []string
	for _, c := range w.clusters() {
		regions = append(regions, c.Region)
	}
	set, err := mkSet(t, w.hours(), max(w.regions, 2)).Subset(regions)
	if err != nil {
		t.Fatal(err)
	}
	return set
}

// part is partition i's world in the fleet w runs.
func (w world) part(i int) world {
	w.partitionID, w.wire = i, wireJSON
	return w
}

// key names everything a run's outcome depends on. Every wire journals
// the same bytes, so the wire is not part of it.
func (w world) key() string {
	return fmt.Sprint(w.policy.Name(), w.snapEvery, w.tenants, w.syncBatch, w.hours(), w.slots, w.jobs, w.regions, w.partitions, w.partitionID, w.memory, w.cfg)
}

// config is the world's server config over dir ("" for none). Trace
// sampling is off unless cfg sets it: a sampled submit appends its trace
// id to the admit record, and the wires' journals are compared byte for
// byte.
func (w world) config(t testing.TB, dir string) Config {
	cfg := w.cfg
	cfg.Policy, cfg.Horizon, cfg.Shards = w.policy, w.hours(), w.shards
	cfg.DataDir, cfg.SnapshotEvery, cfg.Sync = dir, w.snapEvery, wal.SyncNone
	cfg.TraceSampleEvery = cmp.Or(cfg.TraceSampleEvery, -1)
	cfg.Partitions, cfg.PartitionID, cfg.IDBase = w.partitions, w.partitionID, w.partitionID*idStride
	if w.syncBatch {
		cfg.Sync = wal.SyncBatch
	}
	if w.tenants && cfg.Tenants == nil {
		cfg.Tenants = tenancyConfig(t)
	}
	return cfg
}

// workload is the jobs the world's server admits: the whole stream, or
// the share of it whose origin a partition owns.
func (w world) workload(t testing.TB) []sched.Job {
	t.Helper()
	jobs := w.stream(t)
	if w.partitions > 0 {
		jobs = slices.DeleteFunc(jobs, func(j sched.Job) bool { return w.owner(j.Origin) != w.partitionID })
	}
	return jobs
}

// stream is the world's job stream, sorted by arrival and numbered in
// that order from 0 — the ids a server hands out when it assigns them:
// most jobs interruptible or migratable, none longer than 30 hours, the
// last arriving 30 hours before the horizon. A partitioned fleet's
// stream moves each id into its origin's partition's range. A tenancy
// world spreads the jobs over configured tenants, the default one, the
// quota-limited one and an unlisted name that resolves through the
// catch-all.
func (w world) stream(t testing.TB) []sched.Job {
	t.Helper()
	jobs, err := sched.GenerateJobs(sched.WorkloadSpec{
		Jobs: cmp.Or(w.jobs, 26), ArrivalSpan: w.hours() - 30, SlackHours: 24,
		InterruptibleFrac: 0.6, MigratableFrac: 0.5,
		Origins: w.regionNames(), Seed: 23,
	})
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"", "web", "batchy", "spot", "mystery", "quotal"}
	for i := range jobs {
		jobs[i].ID = i
		if w.partitions > 0 {
			jobs[i].ID += w.owner(jobs[i].Origin) * idStride
		}
		jobs[i].Length = min(jobs[i].Length, 30)
		if w.tenants {
			jobs[i].Tenant = names[i%len(names)]
		}
	}
	return jobs
}

// follower builds, but does not start, a follower of the world tailing
// primary, over its own dir ("" for an in-memory one).
func (w world) follower(t testing.TB, primary, dir string, fcfg FollowerConfig, opts ...Option) (*Server, error) {
	t.Helper()
	cfg := w.config(t, dir)
	cfg.TraceSampleEvery = 0
	if fcfg.ReconnectDelay == 0 {
		fcfg.ReconnectDelay = time.Millisecond
	}
	fcfg.Primary = primary
	return NewFollower(w.set(t), w.clusters(), cfg, fcfg, opts...)
}

// node is one server of a cluster and its HTTP face.
type node struct {
	srv    *Server
	ts     *httptest.Server
	client *Client
	dir    string
	link   *link // a follower's network to its primary
	stop   sync.Once

	mu     sync.Mutex
	places []placeRec // every placement this server stepped
}

func (n *node) record(hour, job int, region string) {
	n.mu.Lock()
	n.places = append(n.places, placeRec{hour, job, region})
	n.mu.Unlock()
}

// kill stops serving — closing the listener, then every connection,
// replication streams too, as a kill -9 would — and closes the server.
// Idempotent.
func (n *node) kill() {
	n.stop.Do(func() {
		n.ts.Config.Close()
		n.ts.Close()
		n.srv.Close()
		if n.link != nil {
			n.link.close()
		}
	})
}

// cluster is one world served by a primary and its followers.
type cluster struct {
	t     testing.TB
	w     world
	jobs  []sched.Job
	set   *trace.Set
	clock *hourClock
	wall  *wallClock // the primary's tenant gate clock (WithGateClock)
	ctx   context.Context
	op    string // the op running, for failure messages

	primary   *node
	followers []*node
	via       *Client // when set, submits go through it (a failover client)
	lockstep  bool    // settle after every hour
	// shallow skips check's directory half — the prefix replay and the
	// reboots. A cut sweep sets it on most forks: every recovery rotates
	// to a fresh generation, so each fork ends in a directory of the same
	// shape, a snapshot of what it recovered and the journal after it.
	shallow bool

	hour   int         // the clock's hour
	next   int         // jobs[:next] have been submitted
	chunks int         // submit requests sent; the mixed wire alternates on it
	acked  map[int]int // id -> acknowledgements by a primary that kept it
	faults int         // crashes, restarts and promotions so far
	// offStream is set once a load or a test's own requests sent
	// arrivals that are not the world's stream: the run has no reference.
	offStream bool
	drained   bool
	result    sched.Result

	// places is the run's placement sequence up to the primary's own,
	// which continues it from primary.places[base:].
	places []placeRec
	base   int
	// savedFrom is the hour the primary's carbon-saved gauge counts from:
	// that of the snapshot it booted from, or -1 when it was promoted.
	savedFrom int

	// history maps every server image the primary held to the event at
	// which it first did (nil once load made the order unobservable).
	history map[string]int
	events  int
}

// newCluster boots the world's primary, durable on a fresh data dir
// unless the world keeps it in memory.
func newCluster(t testing.TB, w world) *cluster { return newClusterOn(t, w, &hourClock{}) }

// newClusterOn is newCluster on a clock other clusters share.
func newClusterOn(t testing.TB, w world, clock *hourClock) *cluster {
	t.Helper()
	c := &cluster{
		t: t, w: w, jobs: w.workload(t), set: w.set(t),
		clock: clock, wall: &wallClock{}, ctx: t.Context(), acked: map[int]int{},
		history: map[string]int{},
	}
	dir := ""
	if !w.memory {
		dir = t.TempDir()
	}
	c.primary = c.boot(dir, "")
	c.remember()
	return c
}

func (c *cluster) fatalf(format string, args ...any) {
	c.t.Helper()
	if c.op != "" {
		format = c.op + ": " + format
	}
	c.t.Fatalf(format, args...)
}

// boot starts a primary over dir, recovering whatever it holds, served
// on addr ("" for a fresh one).
func (c *cluster) boot(dir, addr string) *node {
	c.t.Helper()
	n := &node{dir: dir}
	opts := append([]Option{WithClock(c.clock.now), WithGateClock(c.wall.now), WithRecorder(n.record)}, c.w.opts...)
	srv, err := New(c.set, c.w.clusters(), c.w.config(c.t, dir), opts...)
	if err != nil {
		c.fatalf("boot %s: %v", dir, err)
	}
	// Lock-step driving waits on the stream: keep the long-poll snappy.
	if srv.source != nil {
		srv.source.Poll, srv.source.Heartbeat = 200*time.Microsecond, 5*time.Millisecond
	}
	c.serve(n, srv, addr)
	return n
}

// serve serves srv as n on addr ("" for a fresh one).
func (c *cluster) serve(n *node, srv *Server, addr string) {
	n.srv = srv
	n.ts = httptest.NewUnstartedServer(srv.Handler())
	if addr != "" {
		l, err := net.Listen("tcp", addr)
		if err != nil {
			c.fatalf("listen on %s again: %v", addr, err)
		}
		n.ts.Listener.Close()
		n.ts.Listener = l
	}
	n.ts.Start()
	c.t.Cleanup(n.kill)
	var err error
	if n.client, err = NewClient(n.ts.URL, n.ts.Client()); err != nil {
		c.fatalf("%v", err)
	}
}

// serverImage is what a snapshot of s holds: the id counter and the
// fleet image.
func serverImage(t testing.TB, s *Server) []byte {
	t.Helper()
	img, err := s.fleet.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return encodeServerSnapshot(s.nextID, img)
}

// remember records the primary's state as the next event of its
// history.
func (c *cluster) remember() {
	if c.history == nil {
		return
	}
	img := string(serverImage(c.t, c.primary.srv))
	if _, seen := c.history[img]; !seen {
		c.history[img] = c.events
	}
	c.events++
}

// placements is the run's placement sequence so far.
func (c *cluster) placements() []placeRec {
	p := c.primary
	p.mu.Lock()
	defer p.mu.Unlock()
	return append(slices.Clip(c.places), p.places[c.base:]...)
}

// --- ops ---

// at sets the clock to h and steps the primary to it, as every request
// does first — in an hour without arrivals too, journaling the
// watermark.
func (c *cluster) at(h int) {
	c.t.Helper()
	c.hour = h
	c.clock.hour.Store(int64(h))
	if err := c.primary.srv.advance(c.ctx); err != nil {
		c.fatalf("hour %d: step: %v", h, err)
	}
	c.remember()
}

// submit sends the current hour's arrivals.
func (c *cluster) submit() {
	c.t.Helper()
	lo := c.next
	for c.next < len(c.jobs) && c.jobs[c.next].Arrival == c.hour {
		c.next++
	}
	c.send(c.hour, c.jobs[lo:c.next])
}

// send submits jobs that arrive at hour, two a request, over the
// world's wire. Every third job leaves its id to the server, whose id
// counter must then hand out the job's own: jobs go out in id order, so
// every smaller id is taken and no larger one is. A partition's jobs
// all pin theirs, as the partitioned fleet's gateway-split batches do.
func (c *cluster) send(hour int, jobs []sched.Job) {
	c.t.Helper()
	client := c.primary.client
	if c.via != nil {
		client = c.via
	}
	for lo := 0; lo < len(jobs); lo += 2 {
		chunk := jobs[lo:min(lo+2, len(jobs))]
		var batch []JobRequest
		for _, j := range chunk {
			batch = append(batch, request(j, j.ID%3 != 0 || c.w.partitions > 0))
		}
		ack, err := c.w.wire.submit(client, c.chunks)(c.ctx, batch...)
		c.chunks++
		if err != nil {
			c.fatalf("hour %d: submit: %v", hour, err)
		}
		if ack.ArrivalHour != hour {
			c.fatalf("arrival %d, want %d", ack.ArrivalHour, hour)
		}
		for k, id := range ack.IDs {
			if id != chunk[k].ID {
				c.fatalf("hour %d: job %d acknowledged as %d: the id counter is off", hour, chunk[k].ID, id)
			}
			c.acked[id]++
		}
		c.remember()
	}
}

// request is j as a submit request, its id pinned when pin is set.
func request(j sched.Job, pin bool) JobRequest {
	req := JobRequest{
		Origin: j.Origin, Tenant: j.Tenant,
		LengthHours: j.Length, SlackHours: j.Slack,
		Interruptible: j.Interruptible, Migratable: j.Migratable,
	}
	if pin {
		id := j.ID
		req.ID = &id
	}
	return req
}

func (m wireMode) String() string { return [...]string{"json", "binary", "mixed"}[m] }

// submit is client's submit route for the chunk-th request over the wire.
func (m wireMode) submit(client *Client, chunk int) func(context.Context, ...JobRequest) (SubmitResponse, error) {
	if m == wireBinary || m == wireMixed && chunk%2 == 1 {
		return client.SubmitBatch
	}
	return client.Submit
}

// run drives hours [from, to): each hour's clock and arrivals, settling
// the followers after each when the cluster runs in lock-step.
func (c *cluster) run(from, to int) {
	c.t.Helper()
	for h := from; h < to; h++ {
		c.at(h)
		c.submit()
		if c.lockstep {
			c.settle()
		}
	}
}

// tear is what a crash leaves of the newest journal.
type tear struct {
	at   int64
	kind tearKind
}

type tearKind int

const (
	// cutAt cuts the file to at bytes.
	cutAt tearKind = iota
	// garbled keeps it whole with the byte at at garbled: a write torn
	// mid-record with the records after it on disk.
	garbled
	// zeroFrom zeroes it from at to its end, and 64 bytes at least: a
	// power cut that persisted the file's length but not its data.
	zeroFrom
)

func (tr tear) String() string {
	return fmt.Sprintf([]string{"cut at byte %d", "byte %d garbled", "zero-filled from byte %d"}[tr.kind], tr.at)
}

// of returns what the tear leaves of journal.
func (tr tear) of(journal []byte) []byte {
	at := min(max(tr.at, 0), int64(len(journal)))
	switch tr.kind {
	case garbled:
		torn := slices.Clone(journal)
		if at < int64(len(torn)) {
			torn[at] ^= 0xff
		}
		return torn
	case zeroFrom:
		return append(journal[:at:at], make([]byte, max(int64(len(journal))-at, 64))...)
	}
	return journal[:at]
}

// crash kills the primary, leaving its newest journal torn at
// at(bounds), bounds being the journal's record boundaries, and
// recovers.
func (c *cluster) crash(at func(bounds []int64) tear) {
	c.t.Helper()
	p := c.primary
	p.srv.liveJournal().Flush() // what reached the file is what a kill -9 leaves
	bounds := journalBounds(c.t, p.srv.JournalPath(p.srv.Generation()))
	files := readDir(c.t, p.dir)
	p.kill()
	c.recoverFrom(files, at(bounds))
	c.redrive()
}

// recoverFrom boots a new primary from files with the newest journal
// torn by tr and checks boot recovery against a follower's apply of the
// same snapshot and records.
func (c *cluster) recoverFrom(files map[string][]byte, tr tear) DurabilityStats {
	c.t.Helper()
	dir := c.t.TempDir()
	writeDir(c.t, dir, files, tr)
	applied := c.replayDir(dir, nil)
	c.fold(nil)
	c.primary = c.boot(dir, "")
	rec := c.primary.srv.Recovery()
	if !rec.Recovered {
		c.fatalf("boot did not report recovery")
	}
	if !bytes.Equal(serverImage(c.t, c.primary.srv), serverImage(c.t, applied)) {
		c.fatalf("boot recovery and follower apply reach different server images")
	}
	c.rebooted(rec)
	return rec
}

// redrive re-sends every acked job the recovered primary does not hold.
// The journal is written in fleet-event order, so a crash loses only
// admissions at or after the hour recovery reached.
func (c *cluster) redrive() {
	c.t.Helper()
	from := c.primary.srv.Hour()
	var lost []sched.Job
	for _, j := range c.jobs[:c.next] {
		if c.primary.srv.fleet.Has(j.ID) {
			continue
		}
		if j.Arrival < from {
			c.fatalf("job %d (arrival %d) lost although the journal reached hour %d", j.ID, j.Arrival, from)
		}
		lost = append(lost, j)
		c.acked[j.ID]--
	}
	for lo := 0; lo < len(lost); {
		hi := lo
		for hi < len(lost) && lost[hi].Arrival == lost[lo].Arrival {
			hi++
		}
		c.clock.hour.Store(int64(lost[lo].Arrival))
		c.send(lost[lo].Arrival, lost[lo:hi])
		lo = hi
	}
	c.clock.hour.Store(int64(c.hour))
}

// rebooted takes in a primary booted from a directory: placements
// before the snapshot it restored are baked into that snapshot, the
// rest it replays; its gauges count from the snapshot's hour; and the
// followers retarget to it — the generation having moved on, they
// bootstrap again.
func (c *cluster) rebooted(rec DurabilityStats) {
	kept := c.places[:0]
	for _, p := range c.places {
		if p.hour < rec.RecoveredSnapshotHour {
			kept = append(kept, p)
		}
	}
	c.places, c.base = kept, 0
	c.savedFrom = rec.RecoveredSnapshotHour
	c.faults++
	for _, f := range c.followers {
		f.link.retarget(c.primary.ts.Listener.Addr().String())
	}
	c.checkGate()
}

// fold freezes the run's placements so far into c.places before the
// primary changes; next is the new primary when it already holds them.
func (c *cluster) fold(next *node) {
	c.places, c.base = c.placements(), 0
	if next != nil {
		next.mu.Lock()
		c.base = len(next.places)
		next.mu.Unlock()
	}
}

// restart closes the primary cleanly and boots it again from its dir.
func (c *cluster) restart() { c.restartOn("") }

// restartOn is restart serving on addr ("" for a fresh address).
func (c *cluster) restartOn(addr string) {
	c.t.Helper()
	p := c.primary
	want, jobs := serverImage(c.t, p.srv), p.srv.fleet.Jobs()
	p.kill()
	c.fold(nil)
	c.primary = c.boot(p.dir, addr)
	rec := c.primary.srv.Recovery()
	if !rec.Recovered || rec.TornTail || rec.RecoveredJobs != jobs {
		c.fatalf("restart: recovery = %+v, want %d jobs and no torn tail", rec, jobs)
	}
	if !bytes.Equal(serverImage(c.t, c.primary.srv), want) {
		c.fatalf("restart: the rebooted server image differs from the one shut down")
	}
	c.rebooted(rec)
}

// refusal is a request a load sent and the server refused.
type refusal struct {
	jobs []JobRequest
	err  error
}

// load runs workers concurrent submitters of requests requests each,
// worker w's i-th being req(w, i), over the JSON and binary routes by
// turns. Beside them a reader advances the replay hours hours, and polls
// stats and looks jobs up after each and until the submitters are done
// — so admissions, steps, watermarks, rotations and reads interleave.
// It returns the requests the server refused with a status. Only the
// run's totals are predictable, so it has no reference and no history
// from here on.
func (c *cluster) load(workers, requests, hours int, req func(w, i int) []JobRequest) []refusal {
	c.t.Helper()
	c.offStream, c.history = true, nil
	var (
		mu      sync.Mutex
		refused []refusal
		wg      sync.WaitGroup
		done    = make(chan struct{})
		read    = make(chan struct{})
		errs    = make(chan error, workers+1)
		base    = c.hour
		client  = c.primary.client
	)
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range requests {
				jobs := req(w, i)
				ack, err := wireMixed.submit(client, w+i)(c.ctx, jobs...)
				if err != nil && httpx.StatusCodeOf(err) == 0 {
					errs <- fmt.Errorf("submit: %w", err)
					return
				}
				mu.Lock()
				if err != nil {
					refused = append(refused, refusal{jobs, err})
				}
				for _, id := range ack.IDs {
					c.acked[id]++
				}
				mu.Unlock()
			}
		}()
	}
	go func() {
		defer close(read)
		for i := 1; ; i++ {
			if i <= hours {
				c.clock.hour.Store(int64(base + i))
				time.Sleep(time.Millisecond)
			} else {
				select {
				case <-done:
					return
				default:
				}
			}
			if _, err := client.Stats(c.ctx); err != nil {
				errs <- fmt.Errorf("stats: %w", err)
				return
			}
			// Lookups race admissions, so an unknown id is expected.
			if job, err := client.Job(c.ctx, i%(workers*requests)); err == nil && job.State == "" {
				errs <- fmt.Errorf("job %d: empty state", job.ID)
				return
			}
		}
	}()
	wg.Wait()
	close(done)
	<-read
	close(errs)
	for err := range errs {
		c.fatalf("load: %v", err)
	}
	c.hour = base + hours
	return refused
}

// startFollower boots a follower over its own data dir (none when
// memory is set), tailing the primary over a fresh link, and starts it.
func (c *cluster) startFollower(fcfg FollowerConfig, memory bool) *node {
	c.t.Helper()
	n := &node{link: newLink(c.t, c.primary.ts.Listener.Addr().String())}
	if !memory {
		n.dir = c.t.TempDir()
	}
	fcfg.HTTPClient = &http.Client{Transport: n.link}
	srv, err := c.w.follower(c.t, c.primary.ts.URL, n.dir, fcfg, WithClock(c.clock.now), WithRecorder(n.record))
	if err != nil {
		c.fatalf("%v", err)
	}
	c.serve(n, srv, "")
	n.srv.Start(c.ctx)
	c.followers = append(c.followers, n)
	return n
}

func (c *cluster) cutLink(i int) { c.followers[i].link.cut() }

func (c *cluster) restartTail(i int) {
	f := c.followers[i].srv
	f.role.Load().session.stop()
	f.Start(c.ctx)
}

// promote kills the primary once follower i has applied everything,
// and has i take over.
func (c *cluster) promote(i int) {
	c.t.Helper()
	c.settle()
	c.primary.kill()
	c.takeOver(i)
}

// takeOver promotes follower i over HTTP, as an operator would once the
// primary is dead. The other followers are closed: while a stream
// cursor carries no epoch they cannot follow the new primary safely:
// promotion is not fenced yet.
func (c *cluster) takeOver(i int) {
	c.t.Helper()
	f := c.followers[i]
	f.link.close()
	pr, err := f.client.Promote(c.ctx)
	if err != nil {
		c.fatalf("promote: %v", err)
	}
	if jobs := f.srv.fleet.Jobs(); !pr.Promoted || pr.Role != "primary" || pr.Jobs != jobs {
		c.fatalf("promote = %+v, want the follower's %d jobs", pr, jobs)
	}
	if again, err := f.client.Promote(c.ctx); err != nil || again.Promoted {
		c.fatalf("second promote = %+v, %v; want an idempotent no-op", again, err)
	}
	if f.srv.source != nil {
		f.srv.source.Poll, f.srv.source.Heartbeat = 200*time.Microsecond, 5*time.Millisecond
	}
	for j, g := range c.followers {
		if j != i {
			g.kill()
		}
	}
	c.followers = nil
	c.fold(f)
	c.primary, c.savedFrom = f, -1
	c.faults++
	c.checkGate()
}

// settle waits for every follower to apply all the primary has
// journaled, then requires its server image to equal the primary's.
func (c *cluster) settle() {
	c.t.Helper()
	if len(c.followers) == 0 {
		return
	}
	p := c.primary.srv
	p.liveJournal().Flush()
	want := repl.Cursor{Generation: p.Generation()}
	fi, err := os.Stat(p.JournalPath(want.Generation))
	if err != nil {
		c.fatalf("%v", err)
	}
	want.Offset = fi.Size()
	img := serverImage(c.t, p)
	for i, f := range c.followers {
		tail := f.srv.role.Load().session.tail
		what := fmt.Sprintf("follower %d at hour %d to reach cursor %s", i, c.hour, want)
		if c.op != "" {
			what = c.op + ": " + what
		}
		waitUntil(c.t, what, func() bool {
			cur, ok := tail.Cursor()
			return ok && cur == want
		})
		if !bytes.Equal(serverImage(c.t, f.srv), img) {
			c.fatalf("hour %d: follower %d's server image differs from the primary's", c.hour, i)
		}
		if c.w.tenants && !reflect.DeepEqual(f.srv.fleet.TenantStats(), p.fleet.TenantStats()) {
			c.fatalf("hour %d: follower %d's tenant stats differ from the primary's", c.hour, i)
		}
	}
}

// drain runs the world out on the primary.
func (c *cluster) drain() {
	c.t.Helper()
	res, err := c.primary.srv.Drain()
	if err != nil {
		c.fatalf("drain: %v", err)
	}
	c.result, c.drained = res, true
	c.remember()
}

// checkGate requires the primary's tenant gate to hold, for every
// quota-limited tenant, the window its fleet's arrivals imply: a
// recovered or promoted primary must not grant a fresh hour.
func (c *cluster) checkGate() {
	c.t.Helper()
	s := c.primary.srv
	if s.gate == nil {
		return
	}
	h := s.fleet.Hour()
	used := s.fleet.TenantArrivals(h)
	tenants := s.cfg.Tenants
	for _, name := range tenants.Names() {
		spec, _ := tenants.Lookup(name)
		if q := spec.QuotaJobsPerHour; q > 0 && s.gate.Check(name, q-used[name]+1, h) == nil {
			c.fatalf("hour %d: the gate admits %d more %q jobs, %d of its quota of %d having arrived", h, q-used[name]+1, name, used[name], q)
		}
	}
}

// --- the invariants ---

// check drains the run if no op did and asserts the four invariants.
func (c *cluster) check() {
	c.t.Helper()
	if !c.drained {
		c.drain()
	}
	c.settle()
	c.checkGate()

	// 1. Id conservation.
	seen := make(map[int]bool, len(c.result.Outcomes))
	for _, o := range c.result.Outcomes {
		if seen[o.ID] {
			c.fatalf("job %d appears twice in the drained result", o.ID)
		}
		seen[o.ID] = true
	}
	for id, n := range c.acked {
		if n != 1 || !seen[id] {
			c.fatalf("job %d: acknowledged %d times, in the result: %v", id, n, seen[id])
		}
	}
	if len(seen) != len(c.acked) {
		c.fatalf("the drained result holds %d jobs, %d were acknowledged", len(seen), len(c.acked))
	}

	// 3. Placements equal the reference.
	final := serverImage(c.t, c.primary.srv)
	if !c.offStream {
		ref := referenceOf(c.t, c.w, false)
		if diff := placesDiff(c.placements(), ref.places); diff != "" {
			c.fatalf("placement sequences %s", diff)
		}
		if !reflect.DeepEqual(c.result, ref.result) {
			c.fatalf("Result differs:\ngot:       %+v\nreference: %+v", summarize(c.result), summarize(ref.result))
		}
		if !bytes.Equal(final, ref.image) {
			c.fatalf("the final server image differs from the reference's")
		}
		if c.savedFrom >= 0 {
			want := ref.savedFrom(c.savedFrom)
			if got := c.primary.srv.mx.carbonSaved.Value(); math.Abs(got-want) > 1e-9*math.Max(1, want) {
				c.fatalf("carbon saved = %v, want %v: the reference's from hour %d on", got, want, c.savedFrom)
			}
		}
		if c.w.wire != wireJSON && c.faults == 0 {
			p := c.primary.srv
			journal, err := os.ReadFile(p.JournalPath(p.Generation()))
			if err != nil {
				c.fatalf("%v", err)
			}
			if !bytes.Equal(journal, ref.journal) {
				c.fatalf("the journal (%d bytes) differs from the all-JSON run's (%d): the wire leaked into it", len(journal), len(ref.journal))
			}
		}
	}

	for _, f := range c.followers {
		f.kill()
	}
	c.primary.kill()
	if c.primary.dir == "" || c.shallow {
		return
	}

	// 2. Every journal prefix is a state the primary held, in order; and
	// 4, follower apply over the directory ends where the run did.
	last := -1
	applied := c.replayDir(c.primary.dir, func(k int, img []byte) {
		if c.history == nil {
			return
		}
		ev, ok := c.history[string(img)]
		if !ok {
			c.fatalf("a prefix of %d records reaches a state the primary never held", k)
		}
		if ev < last {
			c.fatalf("a prefix of %d records reaches event %d, after %d", k, ev, last)
		}
		last = ev
	})
	if !bytes.Equal(serverImage(c.t, applied), final) {
		c.fatalf("follower apply over the final directory does not reach the final server image")
	}

	// 4. Two reboots from the directory give back the final state.
	for reboot := 1; reboot <= 2; reboot++ {
		s, err := New(c.set, c.w.clusters(), c.w.config(c.t, c.primary.dir), WithClock(c.clock.now))
		if err != nil {
			c.fatalf("reboot %d: %v", reboot, err)
		}
		rec, img, snap := s.Recovery(), serverImage(c.t, s), s.Snapshot()
		if err := s.Close(); err != nil {
			c.fatalf("reboot %d: close: %v", reboot, err)
		}
		if !rec.Recovered || rec.TornTail || rec.RecoveredJobs != len(c.acked) {
			c.fatalf("reboot %d: recovery = %+v, want all %d jobs", reboot, rec, len(c.acked))
		}
		if !bytes.Equal(img, final) {
			c.fatalf("reboot %d: the recovered server image differs from the final one", reboot)
		}
		if !reflect.DeepEqual(snap, c.result) {
			c.fatalf("reboot %d: the recovered Result differs from the drained one", reboot)
		}
	}
}

// replayDir is a follower's view of dir: a fresh server restored from
// the newest snapshot, then fed the journal after it record by record.
// each, when set, sees the server image after the restore (k = 0) and
// after every record k.
func (c *cluster) replayDir(dir string, each func(k int, img []byte)) *Server {
	c.t.Helper()
	store, err := wal.OpenStore(dir)
	if err != nil {
		c.fatalf("%v", err)
	}
	defer store.Close()
	gen, snap, err := store.LatestSnapshot()
	if err != nil || gen == 0 {
		c.fatalf("%s: snapshot: generation %d, %v", dir, gen, err)
	}
	s, err := New(c.set, c.w.clusters(), c.w.config(c.t, ""))
	if err != nil {
		c.fatalf("%v", err)
	}
	if err := s.RestoreReplSnapshot(snap); err != nil {
		c.fatalf("%v", err)
	}
	k := 0
	visit := func() {
		if each != nil {
			each(k, serverImage(c.t, s))
		}
	}
	visit()
	if _, err := wal.Replay(store.JournalPath(gen), func(p []byte) error {
		if err := s.ApplyReplRecord(p); err != nil {
			return fmt.Errorf("record %d: %w", k, err)
		}
		k++
		visit()
		return nil
	}); err != nil && !os.IsNotExist(err) {
		c.fatalf("%v", err)
	}
	return s
}

// --- the reference ---

// placeRec is one executed job-hour, as WithRecorder reports it.
type placeRec struct {
	hour, job int
	region    string
}

// placesDiff describes where got parts from want, or is "" when the two
// sequences are equal.
func placesDiff(got, want []placeRec) string {
	if slices.Equal(got, want) {
		return ""
	}
	div := 0
	for div < min(len(got), len(want)) && got[div] == want[div] {
		div++
	}
	return fmt.Sprintf("diverge at %d (%d placed, reference %d)", div, len(got), len(want))
}

func summarize(r sched.Result) map[string]any {
	return map[string]any{
		"emissions": r.TotalEmissions,
		"completed": r.Completed,
		"missed":    r.Missed,
		"wait":      r.MeanWaitHours,
		"used":      r.SlotHoursUsed,
	}
}

// reference is an uninterrupted run of a world, JSON all the way, from
// boot to drain.
type reference struct {
	jobs    []sched.Job
	places  []placeRec
	result  sched.Result
	image   []byte
	saved   []saving          // every migrated job-hour's saving, in placement order
	files   map[string][]byte // the data dir after the drain
	journal []byte            // its newest journal
	bounds  []int64           // the journal's record boundaries
	// What a crash sweep forks from, recorded only for a torn reference:
	// prefixes[k] is the server image the newest snapshot and the
	// journal's first k records reach, and history maps every server
	// image the run held to the event at which it first did.
	prefixes [][]byte
	history  map[string]int
	events   int
}

type saving struct {
	hour  int
	grams float64
}

// savedFrom sums the savings of the hours from h on, in placement order.
func (r *reference) savedFrom(h int) float64 {
	sum := 0.0
	for _, s := range r.saved {
		if s.hour >= h {
			sum += s.grams
		}
	}
	return sum
}

var refs sync.Map // world key -> *refSlot

// refSlot holds one world's reference; its lock is held while the
// reference runs, so parallel tests wait only for the worlds they share.
type refSlot struct {
	mu sync.Mutex
	r  *reference
}

// referenceOf runs the world once per test binary and holds the run to
// sched's offline fleet. torn asks for a reference a crash sweep can
// fork from; it runs the world again if the one it holds is not.
func referenceOf(t testing.TB, w world, torn bool) *reference {
	t.Helper()
	w.wire = wireJSON
	v, _ := refs.LoadOrStore(w.key(), &refSlot{})
	slot := v.(*refSlot)
	slot.mu.Lock()
	defer slot.mu.Unlock()
	if r := slot.r; r != nil && (r.prefixes != nil || !torn) {
		return r
	}
	c := newCluster(t, w)
	c.op = "reference"
	if !torn {
		c.history = nil
	}
	r := &reference{jobs: c.jobs}
	// A fresh directory replays nothing, so wrapping the hook after New
	// misses no placement.
	fleet := c.primary.srv.fleet
	hook := fleet.OnPlace
	fleet.OnPlace = func(p sched.Placed) {
		if p.Region != p.Origin {
			r.saved = append(r.saved, saving{p.Hour, p.OriginCI - p.CI})
		}
		hook(p)
	}
	c.run(0, w.hours())
	if c.next != len(c.jobs) {
		c.fatalf("submitted %d/%d jobs", c.next, len(c.jobs))
	}
	c.drain()
	r.places, r.result, r.image = c.placements(), c.result, serverImage(t, c.primary.srv)
	r.history, r.events = c.history, c.events
	journal := c.primary.srv.JournalPath(c.primary.srv.Generation())
	c.primary.kill()
	r.bounds = journalBounds(t, journal)
	r.files = readDir(t, c.primary.dir)
	r.journal = r.files[filepath.Base(journal)]
	if torn {
		c.replayDir(c.primary.dir, func(_ int, img []byte) { r.prefixes = append(r.prefixes, img) })
	}
	r.checkOffline(t, w)
	slot.r = r
	return r
}

// checkOffline requires the placements and the Result the service
// reached online to equal sched's offline fleet's.
func (r *reference) checkOffline(t testing.TB, w world) {
	t.Helper()
	places, res := offline(t, w, r.jobs, true)
	if diff := placesDiff(r.places, places); diff != "" {
		t.Fatalf("reference: online and offline placement sequences %s", diff)
	}
	if !reflect.DeepEqual(r.result, res) {
		t.Fatalf("reference: online Result differs from the offline fleet's:\nonline:  %+v\noffline: %+v", summarize(r.result), summarize(res))
	}
}

// offline runs jobs through the world's offline fleet as sched.Run does
// — every job submitted up front, the fleet stepped to Done — under the
// world's fair queue when fair is set.
func offline(t testing.TB, w world, jobs []sched.Job, fair bool) ([]placeRec, sched.Result) {
	t.Helper()
	fleet, err := sched.NewFleet(w.set(t), w.clusters(), w.policy, w.hours())
	if err != nil {
		t.Fatal(err)
	}
	if cfg := w.config(t, ""); fair && cfg.Tenants != nil {
		fleet.SetFairQueue(tenant.NewFairQueue(cfg.Tenants))
	}
	var places []placeRec
	regions := fleet.Regions()
	fleet.OnPlace = func(p sched.Placed) { places = append(places, placeRec{p.Hour, p.JobID, regions[p.Region]}) }
	if err := fleet.Submit(jobs...); err != nil {
		t.Fatal(err)
	}
	for !fleet.Done() {
		if err := fleet.Step(); err != nil {
			t.Fatal(err)
		}
	}
	return places, fleet.Snapshot()
}

// bootTorn boots a server over the reference's files with the newest
// journal torn inside a record by tr. Recovery must report the tail
// torn and hold what the records before the torn one reach: what a cut
// at the record's start recovers, and a follower's apply of them.
func (r *reference) bootTorn(t testing.TB, w world, tr tear) {
	t.Helper()
	dir := t.TempDir()
	writeDir(t, dir, r.files, tr)
	s, err := New(w.set(t), w.clusters(), w.config(t, dir))
	if err != nil {
		t.Fatalf("%s: %v", tr, err)
	}
	rec, img := s.Recovery(), serverImage(t, s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// The boundaries at or before the tear, the first being the header's
	// end, count the whole records before it.
	ends, _ := slices.BinarySearch(r.bounds, tr.at+1)
	records := max(ends-1, 0)
	if !rec.Recovered || !rec.TornTail {
		t.Fatalf("%s: recovery = %+v, want recovered with the torn tail reported", tr, rec)
	}
	if !bytes.Equal(img, r.prefixes[records]) {
		t.Fatalf("%s: recovery did not stop at the torn record: the state differs from the %d records before it", tr, records)
	}
}

// fork is a cluster at the end of the reference run with its primary
// gone: a run to crash, by recoverFrom over the reference's files.
func (r *reference) fork(t testing.TB, w world) *cluster {
	c := &cluster{
		t: t, w: w, jobs: r.jobs, set: w.set(t),
		clock: &hourClock{}, wall: &wallClock{}, ctx: t.Context(), acked: map[int]int{},
		hour: w.hours() - 1, next: len(r.jobs),
		places: slices.Clone(r.places), primary: &node{},
		history: r.history, events: r.events,
	}
	c.clock.hour.Store(int64(c.hour))
	for _, j := range r.jobs {
		c.acked[j.ID] = 1
	}
	return c
}

// --- the partitioned fleet ---

// partitioned is the fleet of the world's partitions (two unless it
// says otherwise) behind a gateway: one cluster per partition, owning
// its share of the regions, on the one clock, each a durable primary
// with a hot standby, and the gateway, which the clients reach over a
// link, so a gateway started anew answers at their URL. Its arrivals
// are the world's stream, every id pinned, four a request, so an hour
// with arrivals from two partitions' regions splits at the gateway. A
// schedule is a sequence of ops on it:
//
//	at(h)          set the clock to h and step every primary to it
//	submit         send the hour's arrivals through the gateway
//	settle         settle every partition
//	kill(node)     kill -9 one process: gateway, or pN-primary (once its
//	               partition has settled) or pN-standby
//	heal(node)     what follows a kill: a new gateway at the clients'
//	               URL, the standby promoted over a dead primary, nothing
//	               for a dead standby
//	promote(p)     kill partition p's primary once settled, and heal it
//	startGateway   start a gateway, killing the old one; retarget the link
//	down(p)        kill both of partition p's nodes, until check
//
// Its check asserts the merged views at the gateway, each partition's
// invariants 1-4 over the jobs it owns, and that every id the gateway
// acked is in exactly one partition's final state.
type partitioned struct {
	t      *testing.T
	w      world
	clock  *hourClock
	parts  []*cluster
	urls   [][]string // each partition's primary and standby: the gateway's configuration
	gw     *httptest.Server
	link   *link   // the clients' network to the gateway, whichever runs
	client *Client // the gateway's, over the link
	op     string  // the op running, for failure messages

	jobs   []sched.Job // the fleet's stream
	next   int
	hour   int
	chunks int
	acked  map[int]int
	downed map[int]bool // the partitions down
}

// newPartitioned boots the world's partitions, each with a standby,
// and the gateway in front of them.
func newPartitioned(t *testing.T, w world) *partitioned {
	t.Helper()
	w.partitions = cmp.Or(w.partitions, 2)
	f := &partitioned{
		t: t, w: w, clock: &hourClock{}, jobs: w.stream(t), acked: map[int]int{},
		link: newLink(t, ""), downed: map[int]bool{},
	}
	for i := range w.partitions {
		c := newClusterOn(t, w.part(i), f.clock)
		standby := c.startFollower(FollowerConfig{}, false)
		f.parts = append(f.parts, c)
		f.urls = append(f.urls, []string{c.primary.ts.URL, standby.ts.URL})
	}
	f.startGateway()
	var err error
	if f.client, err = NewClient(f.gw.URL, &http.Client{Transport: f.link}); err != nil {
		t.Fatal(err)
	}
	return f
}

// setOp names the op running, for the failure messages of the fleet
// and of its partitions.
func (f *partitioned) setOp(op string) {
	f.op = op
	for i, c := range f.parts {
		c.op = fmt.Sprintf("%s: p%d", op, i)
	}
}

func (f *partitioned) fatalf(format string, args ...any) {
	f.t.Helper()
	if f.op != "" {
		format = f.op + ": " + format
	}
	f.t.Fatalf(format, args...)
}

func (f *partitioned) at(h int) {
	f.hour = h
	for _, c := range f.parts {
		c.at(h)
	}
}

// submit sends the hour's arrivals through the gateway and credits
// each acked id to the partition that owns its origin.
func (f *partitioned) submit() {
	f.t.Helper()
	lo := f.next
	for f.next < len(f.jobs) && f.jobs[f.next].Arrival == f.hour {
		f.next++
	}
	arrivals := f.jobs[lo:f.next]
	for lo := 0; lo < len(arrivals); lo += 4 {
		chunk := arrivals[lo:min(lo+4, len(arrivals))]
		var batch []JobRequest
		for _, j := range chunk {
			batch = append(batch, request(j, true))
		}
		ack, err := f.w.wire.submit(f.client, f.chunks)(f.t.Context(), batch...)
		f.chunks++
		if err != nil {
			f.fatalf("hour %d: submit through the gateway: %v", f.hour, err)
		}
		if ack.ArrivalHour != f.hour || len(ack.IDs) != len(chunk) {
			f.fatalf("hour %d: ack %+v for %d jobs", f.hour, ack, len(chunk))
		}
		for k, id := range ack.IDs {
			if id != chunk[k].ID {
				f.fatalf("hour %d: job %d acknowledged as %d", f.hour, chunk[k].ID, id)
			}
			f.acked[id]++
			f.parts[f.w.owner(chunk[k].Origin)].acked[id]++
		}
		f.remember()
	}
}

// remember records every partition's state as the next event of its
// history.
func (f *partitioned) remember() {
	for _, c := range f.parts {
		c.remember()
	}
}

// run drives hours [from, to).
func (f *partitioned) run(from, to int) {
	for h := from; h < to; h++ {
		f.at(h)
		f.submit()
	}
}

func (f *partitioned) settle() {
	for _, c := range f.parts {
		c.settle()
	}
}

// node resolves pN-primary or pN-standby to its partition and role.
func (f *partitioned) node(name string) (c *cluster, primary bool) {
	part, role, _ := strings.Cut(name, "-")
	return f.parts[part[1]-'0'], role == "primary"
}

// kill kills -9 one of the five processes. A primary's partition
// settles first: replication is asynchronous, and what the standby has
// not applied when its primary dies is lost with it.
func (f *partitioned) kill(name string) {
	f.t.Helper()
	if name == "gateway" {
		f.gw.CloseClientConnections()
		f.gw.Close()
		return
	}
	c, primary := f.node(name)
	if primary {
		c.settle()
		c.primary.kill()
		return
	}
	c.followers[0].kill()
	c.followers = nil
}

// heal is what follows kill(name): a new gateway at the clients' URL,
// the standby's promotion over its dead primary, or nothing.
func (f *partitioned) heal(name string) {
	f.t.Helper()
	if name == "gateway" {
		f.startGateway()
		return
	}
	if c, primary := f.node(name); primary {
		c.takeOver(0)
	}
}

// down kills both of partition p's nodes: its standby, and its
// primary's listener, so that up restarts it from all it journaled.
func (f *partitioned) down(p int) {
	c := f.parts[p]
	for _, n := range c.followers {
		n.kill()
	}
	c.followers, f.downed[p] = nil, true
	c.primary.ts.Close()
}

// startGateway starts a gateway over the partitions' first URLs, as
// cmd/schedgw's -partition flags give them, killing the one it replaces,
// and retargets the link to it.
func (f *partitioned) startGateway() {
	f.t.Helper()
	if f.gw != nil {
		f.kill("gateway")
	}
	h, err := NewGateway(f.urls)
	if err != nil {
		f.t.Fatal(err)
	}
	f.gw = httptest.NewServer(h)
	f.t.Cleanup(f.gw.Close)
	f.link.retarget(f.gw.Listener.Addr().String())
}

// gatewayStats is the gateway's /v1/stats: the merged view and the
// partitions it covers.
type gatewayStats struct {
	StatsResponse
	Gateway struct {
		Partitions int   `json:"partitions"`
		Reached    []int `json:"reached"`
		Missing    []int `json:"missing"`
	} `json:"gateway"`
}

// stats is the gateway's /v1/stats.
func (f *partitioned) stats() gatewayStats {
	f.t.Helper()
	var st gatewayStats
	if err := f.client.get(f.t.Context(), "/v1/stats", &st); err != nil {
		f.fatalf("gateway /v1/stats: %v", err)
	}
	return st
}

// check brings every downed partition up — restarts its primary on its
// old address, where the gateway still looks for it — asserts the
// merged views, then drains and checks every partition, then holds the
// gateway's acks to their final states.
func (f *partitioned) check() {
	f.t.Helper()
	f.setOp("check")
	for p := range f.downed {
		f.parts[p].restartOn(f.parts[p].primary.ts.Listener.Addr().String())
	}
	acked := len(f.acked)
	st := f.stats()
	if st.Submitted != acked || st.Gateway.Partitions != len(f.parts) || len(st.Gateway.Missing) > 0 {
		f.fatalf("merged stats: submitted %d of %d partitions, missing %v; want %d acked of %d, none missing",
			st.Submitted, st.Gateway.Partitions, st.Gateway.Missing, acked, len(f.parts))
	}
	metric := scrape(f.t, f.client)
	if got := metric("schedd_jobs_submitted_total"); got != float64(acked) {
		f.fatalf("merged schedd_jobs_submitted_total = %v, want the %d acked", got, acked)
	}
	if got := metric("gateway_partitions"); got != float64(len(f.parts)) {
		f.fatalf("gateway_partitions = %v, want %d", got, len(f.parts))
	}

	holders := map[int]int{}
	for _, c := range f.parts {
		c.check()
		for _, o := range c.result.Outcomes {
			holders[o.ID]++
		}
	}
	for id, n := range f.acked {
		if n != 1 || holders[id] != 1 {
			f.fatalf("job %d: acknowledged %d times, in %d partitions' final state", id, n, holders[id])
		}
	}
	if len(holders) != acked {
		f.fatalf("the partitions hold %d jobs, the gateway acked %d", len(holders), acked)
	}
}

// --- the data dir ---

// journalBounds returns the offset after the header and after every
// record of a journal.
func journalBounds(t testing.TB, path string) []int64 {
	t.Helper()
	bounds := []int64{int64(wal.HeaderLen)}
	res, err := wal.Replay(path, func(p []byte) error {
		bounds = append(bounds, bounds[len(bounds)-1]+8+int64(len(p)))
		return nil
	})
	if err != nil || res.Truncated {
		t.Fatalf("journal %s: %v (torn: %v)", path, err, res.Truncated)
	}
	return bounds
}

func readDir(t testing.TB, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string][]byte, len(entries))
	for _, e := range entries {
		if files[e.Name()], err = os.ReadFile(filepath.Join(dir, e.Name())); err != nil {
			t.Fatal(err)
		}
	}
	return files
}

// writeDir writes files into dir with the newest journal torn by tr —
// the simulated kill -9. File names are zero-padded, so the
// lexicographic maximum is the newest.
func writeDir(t testing.TB, dir string, files map[string][]byte, tr tear) {
	t.Helper()
	newest := ""
	for name := range files {
		if filepath.Ext(name) == ".wal" && name > newest {
			newest = name
		}
	}
	if newest == "" {
		t.Fatalf("no journal among %d files", len(files))
	}
	for name, data := range files {
		if name == newest {
			data = tr.of(data)
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// --- the network ---

// link is a client's network to one server: an http.Transport that
// dials its target whatever host a request names. cut closes every
// connection it dialed, in flight or idle; retarget moves the target and
// cuts; close cuts and fails later dials as a dead server's would.
type link struct {
	http.Transport
	cuts  atomic.Int64
	mu    sync.Mutex
	host  string            // the target's address; "" once closed
	conns map[net.Conn]bool // dialed since the last cut
}

func newLink(t testing.TB, host string) *link {
	l := &link{host: host, conns: map[net.Conn]bool{}}
	l.DialContext = func(ctx context.Context, network, _ string) (net.Conn, error) {
		l.mu.Lock()
		defer l.mu.Unlock()
		if l.host == "" {
			return nil, &net.OpError{Op: "dial", Net: network, Err: syscall.ECONNREFUSED}
		}
		conn, err := new(net.Dialer).DialContext(ctx, network, l.host)
		if err == nil {
			l.conns[conn] = true
		}
		return conn, err
	}
	t.Cleanup(l.close)
	return l
}

func (l *link) cut()                 { l.sever(func() {}) }
func (l *link) retarget(host string) { l.sever(func() { l.host = host }) }
func (l *link) close()               { l.retarget("") }

func (l *link) sever(move func()) {
	l.mu.Lock()
	move()
	for conn := range l.conns {
		conn.Close()
	}
	clear(l.conns)
	l.mu.Unlock()
	l.CloseIdleConnections()
	l.cuts.Add(1)
}

// roundTrip sends a request built by hand to client's endpoint, over
// its HTTP client, and returns the answer's header and body; any status
// but 200 comes back as the typed error the clients return.
func roundTrip(t testing.TB, client *Client, method, path, contentType string, body []byte) (http.Header, []byte, error) {
	t.Helper()
	req, err := http.NewRequestWithContext(t.Context(), method, client.Endpoint()+path, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := client.hc.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, req.URL, err)
	}
	defer resp.Body.Close()
	if body, err = io.ReadAll(resp.Body); err != nil {
		t.Fatalf("%s %s: %v", method, req.URL, err)
	}
	if resp.StatusCode == http.StatusOK {
		return resp.Header, body, nil
	}
	return resp.Header, body, httpx.DecodeResponse(resp.StatusCode, resp.Status, body, "schedd", nil)
}

// scrape reads the /metrics of client's endpoint once and returns its
// series by exact key, failing the test on a missing one.
func scrape(t testing.TB, client *Client) func(series string) float64 {
	t.Helper()
	h, body, err := roundTrip(t, client, http.MethodGet, "/metrics", "", nil)
	if err != nil || !strings.HasPrefix(h.Get("Content-Type"), "text/plain") {
		t.Fatalf("/metrics: %v, Content-Type %q", err, h.Get("Content-Type"))
	}
	sc, err := metrics.ParseText(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("/metrics does not parse: %v", err)
	}
	return func(series string) float64 {
		t.Helper()
		v, ok := sc.Value(series)
		if !ok {
			t.Fatalf("/metrics has no %s", series)
		}
		return v
	}
}

// waitUntil polls cond to true before the deadline.
func waitUntil(t testing.TB, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(200 * time.Microsecond)
	}
}
