package schedd

// Follower-mode construction and lifecycle. A follower is a Server
// built over the same scheduling world as its primary (trace set,
// clusters, policy, horizon — cmd/schedd derives them from the
// primary's /v1/stats config echo) that holds no authority of its own:
// its fleet is driven exclusively by the replication tail, reads are
// served from the replicated state with an X-Replication-Lag-Hours
// header, and writes bounce with 421 plus a primary hint. It becomes a
// primary only through Promote — explicitly via POST /v1/repl/promote,
// or automatically when the health-probe loop loses the primary.

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"net/url"
	"sync"
	"time"

	"carbonshift/internal/httpx"
	"carbonshift/internal/repl"
	"carbonshift/internal/sched"
	"carbonshift/internal/trace"
)

// FollowerConfig configures replication for NewFollower.
type FollowerConfig struct {
	// Primary is the primary schedd's base URL (required).
	Primary string
	// ProbeInterval is the primary health-probe cadence; 0 disables
	// automatic promotion.
	ProbeInterval time.Duration
	// ProbeFailures is how many consecutive failed probes trigger
	// automatic promotion (default 3).
	ProbeFailures int
	// ReconnectDelay is the tail's pause before re-dialing a dropped
	// stream (default 200ms).
	ReconnectDelay time.Duration
	// HTTPClient serves the tail and the probes; nil uses a dedicated
	// client without a global timeout (the stream is long-lived).
	HTTPClient *http.Client
	// OnWatermark, when set, is invoked on the apply goroutine after
	// each watermark record has stepped the fleet — the hook the
	// replication equivalence test snapshots state from.
	OnWatermark func(hour int)
}

// followerState is the replication half of a Server started by
// NewFollower. It outlives promotion (the tail's final cursor and
// counters stay visible in /v1/stats).
type followerState struct {
	cfg  FollowerConfig
	tail *repl.Tail
	hc   *http.Client

	// runMu guards the tail goroutine's lifecycle; promoteMu serializes
	// Promote against itself and keeps the probe loop from racing an
	// explicit promotion.
	runMu     sync.Mutex
	promoteMu sync.Mutex
	parent    context.Context
	cancel    context.CancelFunc
	running   bool
	tailWG    sync.WaitGroup
	probeWG   sync.WaitGroup
}

// NewFollower builds a read-only hot standby replicating the primary
// named in fcfg. The world (set, clusters, cfg.Policy, cfg.Horizon,
// cfg.Shards) must match the primary's — the fleet-image fingerprint
// check rejects a bootstrap from a mismatched primary. cfg.DataDir, if
// set, is NOT opened at construction: a follower's durability is the
// primary's journal; the directory is claimed at promotion. Call Start
// to begin replicating.
func NewFollower(set *trace.Set, clusters []sched.Cluster, cfg Config, fcfg FollowerConfig, opts ...Option) (*Server, error) {
	if u, err := url.Parse(fcfg.Primary); err != nil || u.Scheme == "" || u.Host == "" {
		return nil, fmt.Errorf("schedd: follower: invalid primary URL %q", fcfg.Primary)
	}
	s, err := newServer(set, clusters, cfg, opts)
	if err != nil {
		return nil, err
	}
	hc := fcfg.HTTPClient
	if hc == nil {
		hc = &http.Client{}
	}
	if fcfg.ProbeFailures <= 0 {
		fcfg.ProbeFailures = 3
	}
	s.role.Store(roleFollower)
	s.fol = &followerState{
		cfg:  fcfg,
		hc:   hc,
		tail: repl.NewTail(fcfg.Primary, s, hc, repl.TailConfig{ReconnectDelay: fcfg.ReconnectDelay}),
	}
	s.fol.tail.Register(s.Metrics())
	return s, nil
}

// Start launches the replication tail (and, when ProbeInterval is set,
// the primary health-probe loop) under ctx. A no-op on primaries, on
// an already-running follower, and after promotion.
func (s *Server) Start(ctx context.Context) {
	if s.fol == nil || !s.isFollower() {
		return
	}
	f := s.fol
	f.runMu.Lock()
	defer f.runMu.Unlock()
	if f.running {
		return
	}
	f.parent = ctx
	cctx, cancel := context.WithCancel(ctx)
	f.cancel = cancel
	f.running = true
	f.tailWG.Add(1)
	go func() {
		defer f.tailWG.Done()
		f.tail.Run(cctx)
		f.runMu.Lock()
		f.running = false
		f.runMu.Unlock()
	}()
	if f.cfg.ProbeInterval > 0 {
		f.probeWG.Add(1)
		go func() {
			defer f.probeWG.Done()
			s.probeLoop(cctx)
		}()
	}
}

// stopTail cancels the tail goroutine and waits for it; the cursor
// survives, so a later Start resumes the stream with no gap and no
// double-apply.
func (s *Server) stopTail() {
	f := s.fol
	f.runMu.Lock()
	if f.cancel != nil {
		f.cancel()
	}
	f.runMu.Unlock()
	f.tailWG.Wait()
}

// resumeTail restarts replication after a failed promotion, so a
// follower never silently stops tracking its primary.
func (s *Server) resumeTail() {
	f := s.fol
	f.runMu.Lock()
	parent := f.parent
	f.runMu.Unlock()
	if parent != nil && parent.Err() == nil {
		s.Start(parent)
	}
}

// probeLoop watches the primary's /healthz and promotes this follower
// after ProbeFailures consecutive losses. It exits once the server is
// no longer a follower or ctx ends.
func (s *Server) probeLoop(ctx context.Context) {
	f := s.fol
	tick := time.NewTicker(f.cfg.ProbeInterval)
	defer tick.Stop()
	failures := 0
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
		if !s.isFollower() {
			return
		}
		if s.probePrimary(ctx) == nil {
			failures = 0
			continue
		}
		failures++
		if failures >= f.cfg.ProbeFailures {
			if _, err := s.Promote(); err != nil {
				// The error path resumed the tail; keep probing, and say
				// why the standby the operator expects to take over has not.
				slog.Warn("auto-promotion failed", "err", err, "primary", f.cfg.Primary)
			}
			if !s.isFollower() {
				return
			}
			failures = 0
		}
	}
}

// probePrimary is one health check against the followed primary.
func (s *Server) probePrimary(ctx context.Context) error {
	f := s.fol
	timeout := f.cfg.ProbeInterval
	if timeout > 2*time.Second {
		timeout = 2 * time.Second
	}
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	resp, err := httpx.Do(ctx, f.hc, http.MethodGet, f.cfg.Primary+"/healthz", "", nil, "schedd: probe")
	if err == nil && resp.StatusCode != http.StatusOK {
		err = resp.Decode("schedd: probe", nil) // the status, as a *StatusError
	}
	return err
}
