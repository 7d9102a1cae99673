package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"carbonshift/internal/gateway"
	"carbonshift/internal/sched"
	"carbonshift/internal/schedd"
	"carbonshift/internal/trace"
	"carbonshift/internal/wal"
)

// hourClock is the hand-cranked replay clock every server of a rig
// shares (WithClock and WithGateClock): the harness sets hour h, then
// releases hour h's arrivals.
type hourClock struct {
	start time.Time
	hour  atomic.Int64
}

func (c *hourClock) now() time.Time {
	return c.start.Add(time.Duration(c.hour.Load()) * time.Hour)
}

func (c *hourClock) set(h int) { c.hour.Store(int64(h)) }

type placeRec struct {
	hour, job int
	region    string
}

// node is one partition: a journaling primary and its hot standby,
// each behind its own HTTP server.
type node struct {
	set      *trace.Set
	clusters []sched.Cluster
	cfg      schedd.Config

	primary, standby       *schedd.Server
	primarySrv, standbySrv *httptest.Server

	// Filled only on traced rigs: the primary's placement log
	// (WithRecorder) and the submit bodies it received.
	placements []placeRec
	capMu      sync.Mutex
	captured   []capturedRequest
}

type rigConfig struct {
	spec  onlineSpec
	world *world
	// dir receives one data directory per partition; close removes it.
	dir string
	// rec turns tracing on: span wrappers around the gateway and the
	// primaries, placement logs, and body capture on partition 0.
	rec *recorder
}

// rig is the real topology in one process:
//
//	client → gateway → 2 partitions × (fsync-always primary + hot standby)
type rig struct {
	cfg    rigConfig
	clock  *hourClock
	nodes  []*node
	gw     *gateway.Gateway
	gwSrv  *httptest.Server
	cancel context.CancelFunc
	closed bool
	// transports are every connection pool the rig owns; close drains
	// them so no connection goroutine outlives the rig.
	transports []*http.Transport
}

func (r *rig) newTransport(perHost int) *http.Transport {
	t := &http.Transport{MaxConnsPerHost: perHost, MaxIdleConnsPerHost: max(perHost, 8), IdleConnTimeout: time.Minute}
	r.transports = append(r.transports, t)
	return t
}

// partitionOf is what partition g runs on: its region group's traces and
// clusters, and its schedd.Config as the issue fixes it.
func partitionOf(spec onlineSpec, w *world, g int, dataDir string) (*trace.Set, []sched.Cluster, schedd.Config, error) {
	policy, err := schedd.PolicyByName(spec.Policy, 40, 48)
	if err != nil {
		return nil, nil, schedd.Config{}, err
	}
	set, clusters, err := w.subWorld(g)
	if err != nil {
		return nil, nil, schedd.Config{}, err
	}
	cfg := schedd.Config{
		Policy:           policy,
		Horizon:          spec.Horizon,
		MaxJobs:          math.MaxInt32,
		MaxQueue:         math.MaxInt32,
		Seed:             worldSeed,
		PartitionID:      g,
		Partitions:       partitions,
		IDBase:           g * idBase,
		DataDir:          dataDir,
		SnapshotEvery:    24,
		Sync:             wal.SyncAlways,
		TraceSampleEvery: 1024,
	}
	if spec.Tenants {
		cfg.Tenants = tenantConfig()
	}
	return set, clusters, cfg, nil
}

// bootRig builds and starts the whole topology. On error everything
// already started is torn down.
func bootRig(cfg rigConfig) (_ *rig, err error) {
	ctx, cancel := context.WithCancel(context.Background())
	r := &rig{cfg: cfg, clock: &hourClock{start: cfg.world.set.Start()}, cancel: cancel}
	defer func() {
		if err != nil {
			r.close()
		}
	}()

	var urls [][]string
	for g := 0; g < partitions; g++ {
		n := &node{}
		r.nodes = append(r.nodes, n)
		n.set, n.clusters, n.cfg, err = partitionOf(cfg.spec, cfg.world, g, filepath.Join(cfg.dir, fmt.Sprintf("p%d", g)))
		if err != nil {
			return nil, err
		}
		opts := []schedd.Option{schedd.WithClock(r.clock.now), schedd.WithGateClock(r.clock.now)}
		if cfg.rec != nil {
			opts = append(opts, schedd.WithRecorder(func(hour, job int, region string) {
				n.placements = append(n.placements, placeRec{hour, job, region})
			}))
		}
		if n.primary, err = schedd.New(n.set, n.clusters, n.cfg, opts...); err != nil {
			return nil, fmt.Errorf("partition %d primary: %w", g, err)
		}
		h := n.primary.Handler()
		if cfg.rec != nil {
			var capture func(*http.Request, []byte)
			if g == 0 {
				capture = func(req *http.Request, body []byte) {
					n.capMu.Lock()
					n.captured = append(n.captured, capturedRequest{
						hour: int(r.clock.hour.Load()), path: req.URL.Path,
						contentType: req.Header.Get("Content-Type"), body: body,
					})
					n.capMu.Unlock()
				}
			}
			h = cfg.rec.wrapHandler("schedd.handler", h, capture)
		}
		n.primarySrv = httptest.NewServer(h)

		scfg := n.cfg
		scfg.DataDir = "" // a standby's durability is its primary's journal
		n.standby, err = schedd.NewFollower(n.set, n.clusters, scfg, schedd.FollowerConfig{
			Primary:        n.primarySrv.URL,
			HTTPClient:     &http.Client{Transport: r.newTransport(0)},
			ReconnectDelay: 2 * time.Millisecond,
		}, schedd.WithClock(r.clock.now), schedd.WithGateClock(r.clock.now))
		if err != nil {
			return nil, fmt.Errorf("partition %d standby: %w", g, err)
		}
		n.standbySrv = httptest.NewServer(n.standby.Handler())
		n.standby.Start(ctx)
		urls = append(urls, []string{n.primarySrv.URL, n.standbySrv.URL})
	}

	var upstream http.RoundTripper = r.newTransport(0)
	if cfg.rec != nil {
		upstream = &spanTransport{rec: cfg.rec, name: "gateway.upstream", next: upstream}
	}
	if r.gw, err = gateway.New(gateway.Config{Partitions: urls, HTTPClient: &http.Client{Transport: upstream}}); err != nil {
		return nil, err
	}
	gh := r.gw.Handler()
	if cfg.rec != nil {
		gh = cfg.rec.wrapHandler("gateway.handler", gh, nil)
	}
	r.gwSrv = httptest.NewServer(gh)
	// The gateway learns its routing tables from the partitions on
	// first use; a stats scatter now makes that part of booting the
	// topology instead of the first submit's latency.
	if _, err := serverStats(ctx, r.gwSrv.Client(), r.gwSrv.URL); err != nil {
		return nil, fmt.Errorf("gateway warm-up: %w", err)
	}
	return r, nil
}

// newClient returns a schedd client of the gateway, and the HTTP
// client under it, that own exactly one connection — one closed-loop
// caller.
func (r *rig) newClient() (*schedd.Client, *http.Client, error) {
	var rt http.RoundTripper = r.newTransport(1)
	if r.cfg.rec != nil {
		rt = &spanTransport{rec: r.cfg.rec, next: rt}
	}
	hc := &http.Client{Transport: rt}
	c, err := schedd.NewClient(r.gwSrv.URL, hc)
	return c, hc, err
}

// close tears the topology down in dependency order — standbys stop
// tailing before their primaries' servers close, so no replication
// long-poll holds a server open — drains every connection pool, and
// removes the data directories. Idempotent.
func (r *rig) close() error {
	if r.closed {
		return nil
	}
	r.closed = true
	r.cancel()
	var errs []error
	for _, n := range r.nodes {
		if n.standby != nil {
			errs = append(errs, n.standby.Close())
		}
	}
	if r.gwSrv != nil {
		r.gwSrv.Close()
	}
	for _, n := range r.nodes {
		if n.standbySrv != nil {
			n.standbySrv.Close()
		}
		if n.primarySrv != nil {
			n.primarySrv.Close()
		}
		if n.primary != nil {
			errs = append(errs, n.primary.Close())
		}
	}
	for _, t := range r.transports {
		t.CloseIdleConnections()
	}
	errs = append(errs, os.RemoveAll(r.cfg.dir))
	return errors.Join(errs...)
}

// serverStats reads one server's /v1/stats directly, bypassing the
// gateway.
func serverStats(ctx context.Context, hc *http.Client, url string) (schedd.StatsResponse, error) {
	c, err := schedd.NewClient(url, hc)
	if err != nil {
		return schedd.StatsResponse{}, err
	}
	return c.Stats(ctx)
}

// waitCaughtUp blocks until the standby has applied everything the
// primary has journaled: same fleet hour, same submitted count. It
// polls at 1 ms — a standby exposes no event to wait on.
func waitCaughtUp(ctx context.Context, hc *http.Client, primaryURL string, standby *schedd.Server, standbyURL string) error {
	want, err := serverStats(ctx, hc, primaryURL)
	if err != nil {
		return err
	}
	deadline := time.Now().Add(time.Minute)
	for {
		if standby.Hour() == want.Hour {
			st, err := serverStats(ctx, hc, standbyURL)
			if err != nil {
				return err
			}
			if st.Submitted == want.Submitted {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("standby of %s did not catch up within a minute", primaryURL)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(time.Millisecond):
		}
	}
}

// waitStandbys waits for every standby to catch up and returns how
// long that took.
func (r *rig) waitStandbys(ctx context.Context) (time.Duration, error) {
	t0 := time.Now()
	hc := &http.Client{Transport: r.newTransport(0)}
	for _, n := range r.nodes {
		if err := waitCaughtUp(ctx, hc, n.primarySrv.URL, n.standby, n.standbySrv.URL); err != nil {
			return 0, err
		}
	}
	return time.Since(t0), nil
}

// bootstrapStandby times a brand-new standby of partition g from
// NewFollower to caught up — the standby's time to repair.
func (r *rig) bootstrapStandby(ctx context.Context, g int) (_ time.Duration, err error) {
	n := r.nodes[g]
	scfg := n.cfg
	scfg.DataDir = ""
	hc := &http.Client{Transport: r.newTransport(0)}
	t0 := time.Now()
	fol, err := schedd.NewFollower(n.set, n.clusters, scfg, schedd.FollowerConfig{
		Primary: n.primarySrv.URL, HTTPClient: hc, ReconnectDelay: 2 * time.Millisecond,
	}, schedd.WithClock(r.clock.now), schedd.WithGateClock(r.clock.now))
	if err != nil {
		return 0, err
	}
	srv := httptest.NewServer(fol.Handler())
	fctx, cancel := context.WithCancel(ctx)
	defer func() {
		cancel()
		err = errors.Join(err, fol.Close())
		srv.Close()
	}()
	fol.Start(fctx)
	if err := waitCaughtUp(ctx, hc, n.primarySrv.URL, fol, srv.URL); err != nil {
		return 0, err
	}
	return time.Since(t0), nil
}

// crashImage copies partition g's data directory as it stands — the
// server is not closed, so this is the image a kill -9 would leave.
func (r *rig) crashImage(g int, dst string) error {
	return copyDir(r.nodes[g].cfg.DataDir, dst)
}

func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if e.IsDir() || e.Name() == "LOCK" {
			continue
		}
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
