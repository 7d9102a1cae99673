package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"carbonshift/internal/regions"
	"carbonshift/internal/repl"
	"carbonshift/internal/sched"
	"carbonshift/internal/schedd"
	"carbonshift/internal/simgrid"
	"carbonshift/internal/tenant"
	"carbonshift/internal/wal"
)

// The direct-call layers: each probe times calls into one package's
// public functions on the traced run's own inputs — its stream, the
// submit bodies partition 0 received, the journal those bodies
// produce, and the fleet image at the end of arrivals.

// probeFloor is how long a repeated probe runs at least, so that the
// cheap codecs are timed over many passes.
const probeFloor = 40 * time.Millisecond

// perUnit repeats pass until probeFloor has elapsed and returns
// nanoseconds per unit; one pass covers units units.
func perUnit(units int, pass func() error) (float64, error) {
	var total time.Duration
	n := 0
	for total < probeFloor {
		t0 := time.Now()
		if err := pass(); err != nil {
			return 0, err
		}
		total += time.Since(t0)
		n += units
	}
	return float64(total.Nanoseconds()) / float64(n), nil
}

type layerProbe struct {
	spec  onlineSpec
	seed  uint64
	world *world
	jobs  []sched.Job
	// requests are the stream's first submit requests, enough for the
	// codec probes.
	requests [][]schedd.JobRequest
	captured []capturedRequest
	// generateHours is how many hours the simgrid probe simulates.
	generateHours int
	dir           string
	out           map[string]float64
}

// codecs times the submit wire formats over the stream's requests.
func (p *layerProbe) codecs() error {
	jobs := 0
	var jsonBodies, binBodies [][]byte
	for _, req := range p.requests {
		jobs += len(req)
		var payload any = req[0]
		if len(req) > 1 {
			payload = schedd.SubmitRequest{Jobs: req}
		}
		jb, err := json.Marshal(payload)
		if err != nil {
			return err
		}
		jsonBodies = append(jsonBodies, jb)
		binBodies = append(binBodies, schedd.AppendBinarySubmit(nil, req))
	}
	var err error
	if p.out["schedd.decode_json_ns_per_job"], err = perUnit(jobs, func() error {
		for _, b := range jsonBodies {
			if _, err := schedd.DecodeSubmit(bytes.NewReader(b)); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	if p.out["schedd.decode_binary_ns_per_job"], err = perUnit(jobs, func() error {
		for _, b := range binBodies {
			if _, err := schedd.DecodeBinarySubmit(bytes.NewReader(b)); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	var buf []byte
	if p.out["schedd.encode_binary_ns_per_job"], err = perUnit(jobs, func() error {
		for _, req := range p.requests {
			buf = schedd.AppendBinarySubmit(buf[:0], req)
		}
		return nil
	}); err != nil {
		return err
	}
	ids := make([]int, 0, p.spec.Batch)
	if p.out["schedd.ack_codec_ns_per_job"], err = perUnit(jobs, func() error {
		for h, req := range p.requests {
			ids = ids[:0]
			for i := range req {
				ids = append(ids, *req[i].ID)
			}
			buf = schedd.AppendBinaryAck(buf[:0], h, ids)
			if _, err := schedd.DecodeBinaryAck(buf); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}

	var enc []byte
	p.out["sched.admit_codec_ns_per_job"], err = perUnit(len(p.jobs), func() error {
		for lo := 0; lo < len(p.jobs); lo += 64 {
			enc = sched.EncodeJobs(enc[:0], p.jobs[lo:min(lo+64, len(p.jobs))])
			if _, _, err := sched.DecodeJobs(enc); err != nil {
				return err
			}
		}
		return nil
	})
	return err
}

// twin replays partition 0's captured submit bodies straight into a
// server's Handler().ServeHTTP, with the replay hour each arrived in,
// and returns the per-request handler time.
func (p *layerProbe) twin(dataDir string, sync wal.SyncMode) (_ []time.Duration, journal string, err error) {
	set, clusters, cfg, err := partitionOf(p.spec, p.world, 0, dataDir)
	if err != nil {
		return nil, "", err
	}
	cfg.Sync, cfg.SnapshotEvery = sync, 0 // one generation: the journal carries the whole run
	clock := &hourClock{start: p.world.set.Start()}
	srv, err := schedd.New(set, clusters, cfg, schedd.WithClock(clock.now), schedd.WithGateClock(clock.now))
	if err != nil {
		return nil, "", err
	}
	defer func() { err = errors.Join(err, srv.Close()) }()
	h := srv.Handler()
	times := make([]time.Duration, 0, len(p.captured))
	for _, c := range p.captured {
		clock.set(c.hour)
		req := httptest.NewRequest(http.MethodPost, c.path, bytes.NewReader(c.body))
		req.Header.Set("Content-Type", c.contentType)
		rr := httptest.NewRecorder()
		t0 := time.Now()
		h.ServeHTTP(rr, req)
		times = append(times, time.Since(t0))
		if rr.Code != http.StatusOK {
			return nil, "", fmt.Errorf("twin: %s answered %d: %s", c.path, rr.Code, rr.Body.String())
		}
	}
	return times, srv.JournalPath(srv.Generation()), nil
}

// handlerAndJournal runs the two twins: the in-memory one gives the
// handler time without durability, the journaling one (no fsync, one
// generation) leaves the whole run's journal for the replay probes.
func (p *layerProbe) handlerAndJournal() error {
	times, _, err := p.twin("", wal.SyncNone)
	if err != nil {
		return err
	}
	p.out["schedd.handler_nowal_us_p50"] = median(in(time.Microsecond, times))

	_, journal, err := p.twin(filepath.Join(p.dir, "twin"), wal.SyncNone)
	if err != nil {
		return err
	}
	var records [][]byte
	if _, err := wal.Replay(journal, func(rec []byte) error {
		records = append(records, append([]byte(nil), rec...))
		return nil
	}); err != nil {
		return err
	}
	if len(records) == 0 {
		return errors.New("twin journal holds no records")
	}
	ns, err := perUnit(len(records), func() error {
		_, err := wal.Replay(journal, func([]byte) error { return nil })
		return err
	})
	if err != nil {
		return err
	}
	p.out["wal.replay_records_per_s"] = 1e9 / ns

	// Follower apply: the same records into a fresh server, in order.
	set, clusters, cfg, err := partitionOf(p.spec, p.world, 0, "")
	if err != nil {
		return err
	}
	fresh, err := schedd.New(set, clusters, cfg)
	if err != nil {
		return err
	}
	defer fresh.Close() // in memory: nothing to flush, no error to report
	t0 := time.Now()
	for _, rec := range records {
		if err := fresh.ApplyReplRecord(rec); err != nil {
			return fmt.Errorf("apply record: %w", err)
		}
	}
	p.out["schedd.apply_record_us_mean"] = float64(time.Since(t0).Microseconds()) / float64(len(records))

	var stream []byte
	for i, rec := range records {
		stream = repl.AppendRecord(stream, int64(i), rec)
	}
	p.out["repl.frame_decode_ns_per_record"], err = perUnit(len(records), func() error {
		fr := repl.NewFrameReader(bytes.NewReader(stream))
		for {
			if _, err := fr.Next(); err == io.EOF {
				return nil
			} else if err != nil {
				return err
			}
		}
	})
	return err
}

// journalAppends times the two append disciplines a submit ack waits
// on: one appender, fsync always, a 1-job record per append; and a
// 64-job record buffered then waited for.
func (p *layerProbe) journalAppends() error {
	const appends = 200
	one := sched.EncodeJobs(nil, p.jobs[:1])
	batch := sched.EncodeJobs(nil, p.jobs[:min(64, len(p.jobs))])
	j, err := wal.Create(filepath.Join(p.dir, "probe.wal"), wal.Options{Sync: wal.SyncAlways})
	if err != nil {
		return err
	}
	defer j.Close()
	single := make([]time.Duration, appends)
	for i := range single {
		t0 := time.Now()
		if err := j.Append(one); err != nil {
			return err
		}
		single[i] = time.Since(t0)
	}
	p.out["wal.append_always_us_p50"] = median(in(time.Microsecond, single))
	batched := make([]float64, appends)
	for i := range batched {
		t0 := time.Now()
		seq, err := j.AppendBatchNoWait(batch)
		if err != nil {
			return err
		}
		if err := j.WaitSynced(seq); err != nil {
			return err
		}
		batched[i] = float64(time.Since(t0).Nanoseconds()) / 64
	}
	p.out["wal.append_batch_ns_per_job"] = median(batched)
	return j.Close()
}

// newReference builds the bare ShardedFleet partition g must reproduce:
// the same sub-world, policy and tenancy, nothing else. One fleet per
// partition rather than one grouped fleet over the whole world, because
// a grouped fleet shares a single fair queue across its groups while
// every partition owns one — under slot contention the two dequeue in
// different orders. (Without tenants the two are the same thing, which
// sched's TestRegionGroupEquivalence pins.)
func newReference(spec onlineSpec, w *world, g int) (*sched.ShardedFleet, error) {
	set, clusters, cfg, err := partitionOf(spec, w, g, "")
	if err != nil {
		return nil, err
	}
	f, err := sched.NewShardedFleet(set, clusters, cfg.Policy, cfg.Horizon, cfg.Shards)
	if err != nil {
		return nil, err
	}
	if spec.Tenants {
		f.SetFairQueue(tenant.NewFairQueue(tenantConfig()))
	}
	return f, nil
}

// reference steps the stream on the bare fleets, timing every Submit
// and Step, and probes partition 0's fleet image at the end of
// arrivals. It returns the placement logs for the placement check.
func (p *layerProbe) reference() ([][]placeRec, error) {
	fleets := make([]*sched.ShardedFleet, partitions)
	logs := make([][]placeRec, partitions)
	for g := range fleets {
		f, err := newReference(p.spec, p.world, g)
		if err != nil {
			return nil, err
		}
		f.OnPlace = func(hour, job int, region string) {
			logs[g] = append(logs[g], placeRec{hour, job, region})
		}
		fleets[g] = f
	}
	var steps []float64
	var submit, stepTotal time.Duration
	next := 0
	for h := 0; h < p.spec.Horizon; h++ {
		lo := next
		for next < len(p.jobs) && p.jobs[next].Arrival == h {
			next++
		}
		// Each partition sees its own jobs of a request, in stream order —
		// what the gateway's split hands it.
		for ; lo < next; lo += p.spec.Batch {
			var sub [partitions][]sched.Job
			for _, j := range p.jobs[lo:min(lo+p.spec.Batch, next)] {
				g := p.world.groupOf[j.Origin]
				sub[g] = append(sub[g], j)
			}
			t0 := time.Now()
			for g, jobs := range sub {
				if len(jobs) == 0 {
					continue
				}
				if err := fleets[g].Submit(jobs...); err != nil {
					return nil, err
				}
			}
			submit += time.Since(t0)
		}
		if h == p.spec.ArrivalHours {
			if err := p.image(fleets[0]); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		for _, f := range fleets {
			if err := f.Step(); err != nil {
				return nil, err
			}
		}
		d := time.Since(t0)
		stepTotal += d
		steps = append(steps, millis(d))
	}
	s := summarize(steps)
	p.out["sched.submit_ns_per_job"] = float64(submit.Nanoseconds()) / float64(len(p.jobs))
	p.out["sched.step_ms_p50"] = s.median()
	p.out["sched.step_ms_p99"] = s.quantile(0.99)
	p.out["sched.step_total_s"] = stepTotal.Seconds()
	return logs, nil
}

// image probes what a snapshot rotation, a recovery and a standby
// bootstrap pay for partition 0's fleet as it stands at the end of
// arrivals.
func (p *layerProbe) image(f *sched.ShardedFleet) error {
	const reps = 3
	var img []byte
	var marshal, unmarshal, write []float64
	store, err := wal.OpenStore(filepath.Join(p.dir, "snapstore"))
	if err != nil {
		return err
	}
	defer store.Close()
	for i := 0; i < reps; i++ {
		marshal = append(marshal, millis(timeIt(func() { img, err = f.Marshal() })))
		if err != nil {
			return err
		}
		fresh, err := newReference(p.spec, p.world, 0)
		if err != nil {
			return err
		}
		unmarshal = append(unmarshal, millis(timeIt(func() { err = fresh.Unmarshal(img) })))
		if err != nil {
			return err
		}
		write = append(write, millis(timeIt(func() { err = store.WriteSnapshot(uint64(i+1), img) })))
		if err != nil {
			return err
		}
	}
	p.out["sched.marshal_ms"] = median(marshal)
	p.out["sched.unmarshal_ms"] = median(unmarshal)
	p.out["sched.image_bytes_per_job"] = float64(len(img)) / float64(max(f.Jobs(), 1))
	p.out["wal.snapshot_write_ms"] = median(write)

	var mine []int
	for _, j := range p.jobs {
		if j.Arrival >= p.spec.ArrivalHours {
			break
		}
		if p.world.groupOf[j.Origin] == 0 {
			mine = append(mine, j.ID)
		}
	}
	const lookups = 4096
	p.out["sched.lookup_ns"], err = perUnit(lookups, func() error {
		for i := 0; i < lookups; i++ {
			if _, ok := f.Lookup(mine[(i*7919)%len(mine)]); !ok {
				return errors.New("reference fleet lost a job")
			}
		}
		return nil
	})
	return err
}

// tenancy times the admission gate and the fair-dequeue order on the
// stream's tenant sequence: Check+Commit per submit request, Order
// over one hour's worth of arrivals.
func (p *layerProbe) tenancy() error {
	names := tenantSequence(p.seed, len(p.jobs))
	clock := &hourClock{start: p.world.set.Start()}
	gate := tenant.NewGate(tenantConfig(), clock.now)
	counts := map[string]int{}
	var err error
	p.out["tenant.gate_ns_per_job"], err = perUnit(len(names), func() error {
		for lo := 0; lo < len(names); lo += p.spec.Batch {
			clear(counts)
			for _, n := range names[lo:min(lo+p.spec.Batch, len(names))] {
				counts[n]++
			}
			for n, c := range counts {
				if err := gate.Check(n, c, 0); err != nil {
					return err
				}
				gate.Commit(n, c, 0)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	q := tenant.NewFairQueue(tenantConfig())
	hour := names[:min(max(len(names)/p.spec.ArrivalHours, 64), len(names))]
	ns, err := perUnit(1, func() error { q.Order(hour); return nil })
	p.out["tenant.fair_order_us"] = ns / 1e3
	return err
}

// generate times cold trace generation for the full catalog: one year
// at full size, scaled like every other count.
func (p *layerProbe) generate() error {
	t0 := time.Now()
	_, err := simgrid.Generate(regions.All(), simgrid.Config{Seed: worldSeed, Hours: p.generateHours})
	p.out["simgrid.generate_s"] = time.Since(t0).Seconds()
	return err
}

// run executes every direct-call probe and returns the reference
// placement logs.
func (p *layerProbe) run(ctx context.Context) ([][]placeRec, error) {
	if err := os.MkdirAll(p.dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(p.dir)
	for _, probe := range []func() error{p.codecs, p.handlerAndJournal, p.journalAppends, p.tenancy, p.generate} {
		if err := probe(); err != nil {
			return nil, err
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	return p.reference()
}
