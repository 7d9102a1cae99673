package schedd

// Follower-mode construction and lifecycle. A follower is a Server
// built over the same scheduling world as its primary (trace set,
// clusters, policy, horizon — cmd/schedd derives them from the
// primary's /v1/stats config echo) that holds no authority of its own:
// its fleet is driven exclusively by the replication tail, reads are
// served from the replicated state with an X-Replication-Lag-Hours
// header, and writes bounce with 421 plus a primary hint (the follower
// role, repl.go). It becomes a primary only through Promote —
// explicitly via POST /v1/repl/promote, or automatically when the
// health-probe loop loses the primary.

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

// FollowerConfig configures replication for NewFollower. Only 0 selects
// a default; NewFollower refuses a negative value.
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
	// HTTPClient serves the tail and the probes; nil gives the tail its
	// own client without a global timeout (the stream is long-lived)
	// and the probes http.DefaultClient.
	HTTPClient *http.Client
}

// followerState is the replication session of a Server built by
// NewFollower: the tail, the probes and the primary they reach. Both
// the follower's role and the primary role it promotes to hold it (the
// tail's final cursor and counters stay visible in /v1/stats).
type followerState struct {
	cfg  FollowerConfig
	tail *repl.Tail

	// runMu guards the tail goroutine's lifecycle. closed is set once,
	// by Close: after it neither Start nor resumeTail runs the tail again.
	runMu   sync.Mutex
	parent  context.Context
	cancel  context.CancelFunc
	running bool
	closed  bool
	tailWG  sync.WaitGroup
	probeWG sync.WaitGroup
}

// NewFollower builds a read-only hot standby replicating the primary
// named in fcfg. The world (set, clusters, cfg.Policy, cfg.Horizon and
// cfg.Tenants) must match the primary's — the fleet-image fingerprint
// check rejects a bootstrap from a mismatched primary. cfg.DataDir, if
// set, is NOT opened at construction: a follower's durability is the
// primary's journal; the directory is claimed at promotion. Call Start
// to begin replicating.
func NewFollower(set *trace.Set, clusters []sched.Cluster, cfg Config, fcfg FollowerConfig, opts ...Option) (*Server, error) {
	if u, err := url.Parse(fcfg.Primary); err != nil || u.Scheme == "" || u.Host == "" {
		return nil, fmt.Errorf("schedd: follower: invalid primary URL %q", fcfg.Primary)
	}
	for _, f := range []struct {
		name string
		v    int64
	}{
		{"ProbeInterval", int64(fcfg.ProbeInterval)}, {"ProbeFailures", int64(fcfg.ProbeFailures)},
		{"ReconnectDelay", int64(fcfg.ReconnectDelay)},
	} {
		if f.v < 0 {
			return nil, fmt.Errorf("schedd: FollowerConfig.%s is negative; only 0 means the default", f.name)
		}
	}
	s, err := newServer(set, clusters, cfg, opts)
	if err != nil {
		return nil, err
	}
	if fcfg.ProbeFailures == 0 {
		fcfg.ProbeFailures = 3
	}
	f := &followerState{
		cfg:  fcfg,
		tail: repl.NewTail(fcfg.Primary, s, fcfg.HTTPClient, fcfg.ReconnectDelay),
	}
	f.tail.Register(s.Metrics())
	s.role.Store(followerRole(f))
	return s, nil
}

// Start launches the replication tail (and, when ProbeInterval is set,
// the primary health-probe loop) under ctx. A no-op on primaries, on
// an already-running follower, after promotion, and after Close.
func (s *Server) Start(ctx context.Context) {
	r := s.role.Load()
	if !r.following {
		return
	}
	f := r.session
	f.runMu.Lock()
	defer f.runMu.Unlock()
	if f.running || f.closed {
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
			s.probeLoop(cctx, f)
		}()
	}
}

// stop cancels the tail goroutine and waits for it; the cursor
// survives, so a later Start resumes the stream with no gap and no
// double-apply.
func (f *followerState) stop() {
	f.runMu.Lock()
	if f.cancel != nil {
		f.cancel()
	}
	f.runMu.Unlock()
	f.tailWG.Wait()
}

// close ends replication for good: closed keeps Start and resumeTail
// from running the tail again — a failed auto-promotion racing Close
// would otherwise restart a probe loop into the wait group Close is
// blocked on — then the tail and the probe loop stop. A born primary
// has no session: nothing to close.
func (f *followerState) close() {
	if f == nil {
		return
	}
	f.runMu.Lock()
	f.closed = true
	f.runMu.Unlock()
	f.stop()
	f.probeWG.Wait()
}

// resumeTail restarts replication after a failed promotion, so a
// follower never silently stops tracking its primary.
func (s *Server) resumeTail() {
	f := s.role.Load().session
	f.runMu.Lock()
	parent := f.parent
	f.runMu.Unlock()
	if parent != nil && parent.Err() == nil {
		s.Start(parent)
	}
}

// probeLoop watches the primary's /healthz and promotes this follower
// after ProbeFailures consecutive losses. It exits when ctx ends —
// which Promote's stop brings about, whatever its outcome.
func (s *Server) probeLoop(ctx context.Context, f *followerState) {
	tick := time.NewTicker(f.cfg.ProbeInterval)
	defer tick.Stop()
	failures := 0
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
		if f.probe(ctx) == nil {
			failures = 0
			continue
		}
		failures++
		if failures >= f.cfg.ProbeFailures {
			// On success there is no primary left to probe; on failure
			// resumeTail has started a fresh tail and probe loop. Say why
			// the standby the operator expects to take over has not.
			if _, err := s.Promote(); err != nil {
				slog.Warn("auto-promotion failed", "err", err, "primary", f.cfg.Primary)
			}
			return
		}
	}
}

// probe is one health check against the followed primary.
func (f *followerState) probe(ctx context.Context) error {
	ctx, cancel := context.WithTimeout(ctx, min(f.cfg.ProbeInterval, 2*time.Second))
	defer cancel()
	resp, err := httpx.Do(ctx, f.cfg.HTTPClient, http.MethodGet, f.cfg.Primary+"/healthz", "", nil, "schedd: probe")
	if err == nil && resp.StatusCode != http.StatusOK {
		err = resp.Decode("schedd: probe", nil) // the status, as a *StatusError
	}
	return err
}

// lag is how many fleet hours a follower at hour trails the primary's
// last heartbeat (0 when unknown, caught up, or there is no session).
func (f *followerState) lag(hour int) int {
	if f == nil {
		return 0
	}
	return max(f.tail.PrimaryHour()-hour, 0)
}

// stats is the session's half of the /v1/stats replication block —
// where the server replicates (or, promoted, replicated) from, the
// cursor and the lag; nil on a born primary.
func (f *followerState) stats(hour int) *ReplicationStats {
	if f == nil {
		return nil
	}
	rs := &ReplicationStats{
		Primary:     f.cfg.Primary,
		PrimaryHour: f.tail.PrimaryHour(),
		LagHours:    f.lag(hour),
		TailStats:   f.tail.Stats(),
	}
	if cur, ok := f.tail.Cursor(); ok {
		rs.CursorGeneration = cur.Generation
		rs.CursorOffset = cur.Offset
	}
	return rs
}
