// Package schedd is the online carbon-aware scheduling service: the
// live, Borg/Kubernetes-shaped component that internal/sched's batch
// simulator stands in for. It wraps the incremental fleet core,
// sched.Fleet, in an HTTP API — jobs are submitted over the
// wire, placed by a pluggable carbon-aware policy against the replayed
// grid, and observable while they run:
//
//	POST /v1/jobs          submit one job or a batch (JSON)
//	POST /v1/jobs/batch    submit a batch on the binary fast path
//	GET  /v1/jobs/{id}     status: queued/running/done/missed
//	GET  /v1/stats         fleet emissions, utilization, miss rate
//	GET  /metrics          Prometheus text exposition
//	GET  /healthz          liveness
//
// Time is driven by an injectable replay clock: the wall clock maps to
// a trace hour, and the fleet is stepped forward to the current hour
// before every request is answered. Because the fleet is the exact engine behind sched.Run, an
// online run that submits the same jobs at the same hours produces
// byte-identical placements and emissions to the offline simulation,
// as asserted by this package's equivalence test.
//
// Submit path: both submit routes are one pipeline, serveSubmit, handed
// the Wire (codec.go) of the route the request arrived on — JSONWire or
// BinaryWire, the only two. A Wire carries a protocol's route, media
// type and codecs; decode, advance, admit, the journal wait and the ack
// are written once, so the protocols cannot drift in what they admit.
// Client and internal/gateway submit through the same two values.
//
// Concurrency: the server no longer serializes every request behind
// one mutex over a full-store walk. Stepping is guarded by stepMu with
// a lock-free fast path for the common already-caught-up case;
// admission (bounds + id assignment) holds the small admitMu while the
// fleet's short id-registry section takes care of insertion; Lookup and
// Stats ride the fleet's read path — Stats is O(1) over incrementally
// maintained counters, never a walk over the job store. A Step holds
// the fleet exclusively and runs serially on the stepping request.
//
// Durability: with Config.DataDir set, admissions and hour watermarks
// are journaled through internal/wal and the fleet state is
// snapshotted periodically; New recovers whatever a previous
// incarnation left behind — snapshot restore plus journal-tail replay,
// torn final writes tolerated — before serving, to state
// byte-identical to a server that never stopped (the crash-injection
// tests). /v1/stats reports the recovery counters.
//
// Replication: a durable server is also a replication primary, serving
// its journal as a resumable stream (GET /v1/repl/stream, snapshot
// bootstrap via GET /v1/repl/snapshot). NewFollower builds a hot
// standby that tails that stream into its own fleet — byte-identical
// to the primary at every shared watermark — serves read-only lookups
// and stats with an X-Replication-Lag-Hours header, rejects writes and
// the replication source (no chained replication) with 421 plus a
// primary hint, and promotes to primary on POST /v1/repl/promote or on
// primary health-probe loss (the replication/chaos/failover tests).
// All of that difference is one immutable role value (repl.go): the
// request path reads it only in guard, the layer every route is
// registered behind, and in advance, which steps the fleet to the
// role's target hour.
//
// Lifecycle: newServer builds the role-less core and New or NewFollower
// installs a role on it; boot, a follower's bootstrap and stream, and
// promotion are compositions of the same few functions (restore,
// apply, openStore, takeAuthority — durable.go, with the
// journal-ordering argument they rest on; the follower side is repl.go
// and follower.go), and all live stepping is stepWhile. Promote swaps
// the role exactly once, after the clock is rebased; Close ends a
// follower's replication for good. DESIGN.md "Server lifecycle" has the
// state table.
//
// Observability: GET /metrics serves every schedd_*, wal_*, repl_*,
// and http_* family (metrics.go) in Prometheus text format.
// Fleet-derived series are callback-backed over the same counters
// /v1/stats reads, so the two endpoints cannot disagree — a parity
// the metrics tests pin. Instrumentation is nil-safe and lock-cheap;
// WithoutMetrics disables it entirely for baseline benchmarking. The
// metric reference is docs/OBSERVABILITY.md; alert rules and the
// Grafana dashboard live in examples/dashboard/.
package schedd

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"carbonshift/internal/httpx"
	"carbonshift/internal/repl"
	"carbonshift/internal/sched"
	"carbonshift/internal/serve"
	"carbonshift/internal/tenant"
	"carbonshift/internal/trace"
	"carbonshift/internal/tracing"
	"carbonshift/internal/wal"
)

// Defaults for Config's bounds.
const (
	DefaultMaxJobs  = 1 << 20
	DefaultMaxQueue = 1 << 16
)

// Config sets the service's scheduling world. Where a field has a
// default, only 0 selects it: New and NewFollower refuse a negative one.
type Config struct {
	// Policy places flexible jobs (required).
	Policy sched.Policy
	// Horizon is the exclusive final trace hour (default: trace length).
	Horizon int
	// Shards is ignored.
	//
	// Deprecated: the fleet no longer has region shards; leave it 0.
	Shards int
	// MaxJobs bounds the total jobs the in-memory store retains;
	// submissions past it are rejected with 503 (default DefaultMaxJobs).
	MaxJobs int
	// MaxQueue bounds outstanding (unresolved) jobs; submissions that
	// would exceed it are rejected with 503 (default DefaultMaxQueue).
	MaxQueue int
	// Seed is echoed in /v1/stats so load generators can reproduce the
	// server's trace set for offline baselines.
	Seed uint64

	// Speedup is the replay speed (trace seconds per wall second, as in
	// cmd/schedd's -speedup flag); it converts the remainder of the
	// current fleet hour into the wall-clock Retry-After hint on 429
	// quota rejections. 0 means real time.
	Speedup float64

	// PartitionID, Partitions, and IDBase describe this server's place
	// in a gateway-fronted partitioned fleet: with Partitions > 0 the
	// identity is echoed in /v1/stats (so internal/gateway can learn
	// the topology from the servers themselves) and auto-assigned job
	// ids start at IDBase, keeping each partition's id range disjoint
	// for the gateway's id-range job lookup routing.
	PartitionID int
	Partitions  int
	IDBase      int

	// Tenants, when non-nil, turns on multi-tenancy: submissions carry a
	// tenant name, dequeue order is weighted-fair across tenants (class
	// weight × tenant weight), per-tenant quotas and rate limits reject
	// with 429, and /v1/stats and /metrics grow per-tenant views. The
	// config is part of the scheduling world: snapshots embed its
	// fingerprint, so a replica or a recovery must run the same tenant
	// set (cmd/schedd copies it from the primary's /v1/stats echo).
	Tenants *tenant.Config

	// DataDir, when non-empty, enables durability: admissions and hour
	// watermarks are journaled through internal/wal, the fleet state is
	// snapshotted periodically, and New recovers whatever a previous
	// incarnation left in the directory before serving.
	DataDir string
	// SnapshotEvery is the snapshot cadence in fleet hours (0 = only
	// the boot-time snapshot; the journal then carries the whole run).
	SnapshotEvery int
	// Sync is the journal fsync discipline (default wal.SyncBatch:
	// group flushes every wal.DefaultBatchInterval, so an ack's
	// durability window is bounded by that interval; wal.SyncAlways
	// makes every ack durable before it is sent).
	Sync wal.SyncMode

	// Advertise is this server's own public base URL, echoed in
	// /v1/stats so operators and failover clients can learn the
	// topology. Optional.
	Advertise string

	// TraceSampleEvery head-samples 1 in N submit traces (0 =
	// tracing.DefaultSampleEvery, 1 = every request, negative = never);
	// TraceSlow is the always-sample-on-slow threshold (0 =
	// tracing.DefaultSlowThreshold). See internal/tracing and
	// WithoutTracing.
	TraceSampleEvery int
	TraceSlow        time.Duration
}

// Server is the online scheduling service.
type Server struct {
	fleet *sched.Fleet
	// recorder is WithRecorder's callback (nil without it), fed by
	// onPlace.
	recorder func(hour, jobID int, region string)

	traceStart time.Time
	now        func() time.Time
	clusters   []sched.Cluster
	cfg        Config

	// stepMu serializes fleet catch-up stepping and draining. known is
	// the highest hour the fleet is known to have reached; requests
	// whose target hour is already covered skip the lock entirely.
	stepMu sync.Mutex
	known  atomic.Int64

	// failed pins the fault that poisoned the service (see poison).
	failed atomic.Pointer[serverFailure]

	// admitMu covers admission control: bound checks plus id
	// assignment, so the store/queue bounds are exact even under
	// concurrent submitters. Admission journal records are appended
	// under it, which makes journal order equal fleet submission order.
	// inBatch is admit's id-dedup scratch, reused across admissions
	// (cleared on exit) so the hot path allocates no per-request map.
	admitMu sync.Mutex
	nextID  int
	inBatch map[int]bool

	// origins interns the cluster table's region strings for the binary
	// decoder (read-only after New).
	origins map[string]string

	// Tenancy (gate and tenants nil/empty without Config.Tenants): gate
	// enforces quotas and rate limits at admission, tenants interns
	// configured tenant names for the binary decoder (read-only after
	// New), gateClock is the token-bucket time source (nil = time.Now;
	// injectable for tests), and tenantCounts is admit's per-batch tally
	// scratch, reused under admitMu like inBatch.
	gate         *tenant.Gate
	tenants      map[string]string
	gateClock    func() time.Time
	tenantCounts map[string]int

	// store is the data directory, which owns the live generation and
	// its journal (nil without Config.DataDir); lastSnapHour is the
	// fleet hour of its newest snapshot; recovery describes what boot —
	// or a promotion — restored. All are atomic because promotion
	// installs them on a live server while lock-free readers (stats,
	// the repl source) look on.
	store        atomic.Pointer[wal.Store]
	lastSnapHour atomic.Int64
	recovery     atomic.Pointer[DurabilityStats]

	// Replication: role is what the server is (repl.go) — installed by
	// New or NewFollower, swapped exactly once by Promote, which
	// promoteMu serializes against itself and the probe loop. source
	// serves the journal stream on durable primaries; onPromote lets
	// cmd/schedd rebase its replay clock when a follower takes over.
	role      atomic.Pointer[role]
	promoteMu sync.Mutex
	source    *repl.Source
	onPromote func(hour int)

	// mx is the /metrics instrumentation (nil when built
	// WithoutMetrics); noMetrics records the option before initMetrics
	// would run. See metrics.go.
	mx        *serverMetrics
	noMetrics bool

	// tr is the request tracer (nil when built WithoutTracing); every
	// span call no-ops through it when nil. See tracing.go.
	tr        *tracing.Tracer
	noTracing bool
}

type serverFailure struct{ err error }

// Option configures a Server.
type Option func(*Server)

// WithClock injects the time source (for replay and tests). Trace hour
// 0 corresponds to the trace set's start time.
func WithClock(now func() time.Time) Option {
	return func(s *Server) { s.now = now }
}

// WithRecorder observes every executed job-hour (hour, job id, region)
// in deterministic order — the placement log of the benchmark's traced
// rigs (bench/rig.go), and of every server the tests' fault harness
// holds to an uninterrupted run and to sched's offline fleet.
func WithRecorder(rec func(hour, jobID int, region string)) Option {
	return func(s *Server) { s.recorder = rec }
}

// onPlace is the fleet's one placement hook: it feeds WithRecorder and
// the carbon-saved attribution (metrics.go), or is nil when neither is
// on, so the fleet builds no Placed.
func (s *Server) onPlace() func(sched.Placed) {
	rec, mx := s.recorder, s.mx
	if rec == nil && mx == nil {
		return nil
	}
	regions := s.fleet.Regions()
	return func(p sched.Placed) {
		if rec != nil {
			rec(p.Hour, p.JobID, regions[p.Region])
		}
		if mx != nil && p.Region != p.Origin {
			saved := p.OriginCI - p.CI
			mx.carbonSaved.Add(saved)
			if mx.tenantCarbon != nil {
				mx.tenantCarbon.With(s.tenantLabel(p.Tenant)).Add(saved)
			}
		}
	}
}

// WithGateClock injects the tenant gate's token-bucket time source
// (for rate-limit tests). The gate meters wall-clock request floods,
// so it deliberately does not share the replay clock WithClock sets.
func WithGateClock(now func() time.Time) Option {
	return func(s *Server) { s.gateClock = now }
}

// WithPromoteNotify registers a callback invoked (once) when a
// follower promotes to primary, with the fleet hour at promotion —
// cmd/schedd uses it to rebase its replay clock so the new primary's
// time continues from the replicated state instead of hour zero.
func WithPromoteNotify(fn func(hour int)) Option {
	return func(s *Server) { s.onPromote = fn }
}

// New builds the service over the trace set and regional clusters: a
// primary, durable when cfg.DataDir is set — New then recovers whatever
// a previous incarnation left in the directory and takes authority over
// it before returning (openDurable).
func New(set *trace.Set, clusters []sched.Cluster, cfg Config, opts ...Option) (*Server, error) {
	s, err := newServer(set, clusters, cfg, opts)
	if err != nil {
		return nil, err
	}
	s.role.Store(primaryRole(nil))
	if cfg.DataDir != "" {
		if err := s.openDurable(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// validate refuses what only zero may mean: a negative bound, cadence,
// horizon, partition count, id base or replay speed is not a default.
// PartitionID must lie in [0, Partitions), and be 0 when unpartitioned.
// Sync must be one of wal's three modes, journaled or not.
func (cfg Config) validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"MaxJobs", float64(cfg.MaxJobs)}, {"MaxQueue", float64(cfg.MaxQueue)},
		{"SnapshotEvery", float64(cfg.SnapshotEvery)}, {"Horizon", float64(cfg.Horizon)},
		{"Partitions", float64(cfg.Partitions)}, {"IDBase", float64(cfg.IDBase)},
		{"Speedup", cfg.Speedup},
	} {
		if f.v < 0 {
			return fmt.Errorf("schedd: Config.%s %v is negative; only 0 means the default", f.name, f.v)
		}
	}
	if n := max(cfg.Partitions, 1); cfg.PartitionID < 0 || cfg.PartitionID >= n {
		return fmt.Errorf("schedd: Config.PartitionID %d outside [0, %d)", cfg.PartitionID, n)
	}
	if cfg.Sync < wal.SyncBatch || cfg.Sync > wal.SyncNone {
		return fmt.Errorf("schedd: Config.Sync %v is not a wal sync mode", cfg.Sync)
	}
	return nil
}

// newServer builds the role-less core New and NewFollower share —
// fleet, admission state, metrics, tracing — and touches no directory:
// cfg.DataDir is claimed by boot (openDurable) or by promotion.
func newServer(set *trace.Set, clusters []sched.Cluster, cfg Config, opts []Option) (*Server, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Horizon == 0 {
		cfg.Horizon = set.Len()
	}
	if cfg.MaxJobs == 0 {
		cfg.MaxJobs = DefaultMaxJobs
	}
	if cfg.MaxQueue == 0 {
		cfg.MaxQueue = DefaultMaxQueue
	}
	fleet, err := sched.NewFleet(set, clusters, cfg.Policy, cfg.Horizon)
	if err != nil {
		return nil, err
	}
	s := &Server{
		fleet:        fleet,
		traceStart:   set.Start(),
		now:          time.Now,
		clusters:     clusters,
		cfg:          cfg,
		nextID:       cfg.IDBase,
		inBatch:      make(map[int]bool),
		tenantCounts: make(map[string]int),
		origins:      make(map[string]string, len(clusters)),
	}
	for _, c := range clusters {
		s.origins[c.Region] = c.Region
	}
	if cfg.Tenants != nil {
		fleet.SetFairQueue(tenant.NewFairQueue(cfg.Tenants))
		names := cfg.Tenants.Names()
		s.tenants = make(map[string]string, len(names))
		for _, n := range names {
			s.tenants[n] = n
		}
	}
	for _, o := range opts {
		o(s)
	}
	if cfg.Tenants != nil {
		// Built after the options so WithGateClock can inject the
		// token-bucket time source.
		s.gate = tenant.NewGate(cfg.Tenants, s.gateClock)
	}
	// Metrics and tracing come up before the durable layer so the
	// journal takeAuthority opens is metered and traced from its first
	// record.
	if !s.noMetrics {
		s.initMetrics()
	}
	fleet.OnPlace = s.onPlace()
	if !s.noTracing {
		s.initTracing()
	}
	return s, nil
}

// resetGate rebuilds the admission gate's quota windows from the
// fleet's own arrival records for its current hour — the recovery and
// promotion path, so per-tenant quota enforcement resumes exactly
// where the previous incarnation (or the replicated primary) stopped
// instead of granting every tenant a fresh window.
func (s *Server) resetGate() {
	if s.gate == nil {
		return
	}
	h := s.fleet.Hour()
	s.gate.Reset(h, s.fleet.TenantArrivals(h))
}

// hourNow maps the clock to a fleet hour, clamped into [0, horizon]: a
// primary's advance target.
func (s *Server) hourNow() int {
	return min(max(int(s.now().UTC().Sub(s.traceStart)/time.Hour), 0), s.cfg.Horizon)
}

func (s *Server) failure() error {
	if f := s.failed.Load(); f != nil {
		return f.err
	}
	return nil
}

// poison pins err as the service's failure — a policy fault, or a
// journal error that left the fleet holding state the log does not —
// and returns it; every later request answers with it.
func (s *Server) poison(err error) error {
	s.failed.Store(&serverFailure{err})
	return err
}

// stepWhile is the one live stepping loop, under advance (to the
// clock) and Drain (until empty): step the fleet while more() holds,
// then journal the hour reached as one watermark. It returns the hours
// stepped; any error has poisoned the service. Must be called under
// stepMu.
func (s *Server) stepWhile(more func() bool) (int, error) {
	if err := s.failure(); err != nil {
		return 0, err
	}
	from := s.fleet.Hour()
	for more() {
		if err := s.stepOnce(); err != nil {
			return 0, s.poison(err)
		}
	}
	hour := s.fleet.Hour()
	if hour > from {
		if err := s.journalWatermark(hour); err != nil {
			return 0, s.poison(err)
		}
	}
	if int64(hour) > s.known.Load() {
		s.known.Store(int64(hour))
	}
	return hour - from, nil
}

// advance steps the fleet to the role's target hour — the clock's on a
// primary; a follower's is always reached, so reads serve whatever the
// tail has applied. The fast path — the fleet already caught up — is a
// single atomic load; only requests that actually cross an hour
// boundary contend on stepMu. ctx carries the request's trace, so a
// submit that lands on an hour boundary shows the catch-up cost as its
// own span.
func (s *Server) advance(ctx context.Context) error {
	if err := s.failure(); err != nil {
		return err
	}
	target := s.role.Load().target(s)
	if int(s.known.Load()) >= target {
		return nil
	}
	_, sp := tracing.StartSpan(ctx, "fleet.catchup")
	defer sp.End()
	s.stepMu.Lock()
	defer s.stepMu.Unlock()
	hours, err := s.stepWhile(func() bool { return s.fleet.Hour() < target })
	if err != nil {
		return err
	}
	sp.SetAttr(tracing.Int("hours", hours))
	if hours > 0 {
		if err := s.maybeSnapshot(); err != nil {
			return s.poison(err)
		}
	}
	return nil
}

// JobRequest is one job submission. ID is optional: when nil the server
// assigns the next sequential id. Arrival is always the current replay
// hour — jobs cannot be submitted into the past or future.
type JobRequest struct {
	ID            *int   `json:"id,omitempty"`
	Origin        string `json:"origin"`
	Tenant        string `json:"tenant,omitempty"`
	LengthHours   int    `json:"length_hours"`
	SlackHours    int    `json:"slack_hours"`
	Interruptible bool   `json:"interruptible"`
	Migratable    bool   `json:"migratable"`
}

// SubmitRequest is the POST /v1/jobs payload: either a bare JobRequest
// or {"jobs": [...]} for a batch.
type SubmitRequest struct {
	JobRequest
	Jobs []JobRequest `json:"jobs,omitempty"`
}

// SubmitResponse acknowledges admitted jobs.
type SubmitResponse struct {
	IDs         []int `json:"ids"`
	ArrivalHour int   `json:"arrival_hour"`
	Accepted    int   `json:"accepted"`
}

// JobResponse is the GET /v1/jobs/{id} payload.
type JobResponse struct {
	ID             int     `json:"id"`
	State          string  `json:"state"` // queued | running | done | missed
	Origin         string  `json:"origin"`
	Tenant         string  `json:"tenant,omitempty"`
	Region         string  `json:"region,omitempty"`
	ArrivalHour    int     `json:"arrival_hour"`
	DeadlineHour   int     `json:"deadline_hour"`
	RemainingHours int     `json:"remaining_hours"`
	CompletedAt    int     `json:"completed_at,omitempty"`
	EmissionsG     float64 `json:"emissions_g"`
	WaitHours      int     `json:"wait_hours"`
	Migrations     int     `json:"migrations"`
}

// ClusterInfo describes one regional cluster in /v1/stats.
type ClusterInfo struct {
	Region string `json:"region"`
	Slots  int    `json:"slots"`
}

// StatsResponse is the GET /v1/stats payload.
type StatsResponse struct {
	Policy          string        `json:"policy"`
	Hour            int           `json:"hour"`
	Horizon         int           `json:"horizon"`
	Seed            uint64        `json:"seed"`
	Clusters        []ClusterInfo `json:"clusters"`
	Submitted       int           `json:"submitted"`
	Completed       int           `json:"completed"`
	Missed          int           `json:"missed"`
	Running         int           `json:"running"`
	QueueDepth      int           `json:"queue_depth"`
	Unresolved      int           `json:"unresolved"`
	TotalEmissionsG float64       `json:"total_emissions_g"`
	Utilization     float64       `json:"utilization"`
	MissRate        float64       `json:"miss_rate"`
	// Gate echoes the gated policy's parameters beside Policy, for a
	// follower to resolve the same policy through PolicyByName; absent
	// for an ungated policy.
	Gate *GateParams `json:"gate,omitempty"`
	// Tenants is the per-tenant accounting view (sorted by name) and
	// TenantConfig echoes the live tenant registry — the echo is how a
	// follower's cmd/schedd copies the primary's exact tenant world, the
	// same way it copies the trace seed. Both are absent without
	// Config.Tenants.
	Tenants      []TenantStatsEntry `json:"tenants,omitempty"`
	TenantConfig []tenant.Spec      `json:"tenant_config,omitempty"`
	// Durability describes the journaling layer and the boot-time
	// recovery; absent when the server runs in-memory only.
	Durability *DurabilityStats `json:"durability,omitempty"`
	// Replication describes the replication session — role, cursor,
	// lag — for followers, promoted primaries, and primaries with an
	// advertise URL.
	Replication *ReplicationStats `json:"replication,omitempty"`
	// Partition identifies this server's slice of a partitioned fleet;
	// absent unless Config.Partitions is set.
	Partition *PartitionInfo `json:"partition,omitempty"`
}

// PartitionInfo is the /v1/stats partition echo: which of the Count
// partitions this server is, and where its auto-assigned id range
// starts. internal/gateway reads it (together with the clusters block)
// to learn routing tables from the partitions themselves.
type PartitionInfo struct {
	ID     int `json:"id"`
	Count  int `json:"count"`
	IDBase int `json:"id_base"`
}

// TenantStatsEntry is one tenant's row in the /v1/stats tenants block:
// its configured class and effective weight plus the fleet's live
// per-tenant accounting.
type TenantStatsEntry struct {
	Name       string       `json:"name"`
	Class      tenant.Class `json:"class"`
	Weight     int          `json:"weight"`
	Submitted  int          `json:"submitted"`
	Completed  int          `json:"completed"`
	Missed     int          `json:"missed"`
	Running    int          `json:"running"`
	QueueDepth int          `json:"queue_depth"`
	Unresolved int          `json:"unresolved"`
	SlotHours  int          `json:"slot_hours"`
	EmissionsG float64      `json:"emissions_g"`
}

// ErrorResponse is the JSON error body every service sends, declared
// once in httpx: Primary is a follower's 421 write-redirect hint (see
// client.go for the contract), RetryAfter a 429 or 503's backpressure
// hint in seconds.
type ErrorResponse = httpx.ErrorBody

// Handler returns the HTTP handler for the service. Every route goes
// through guard (repl.go), which alone reads the role: the two submit
// wires and the replication source are primary-only.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	handle := func(pattern string, primaryOnly bool, h http.HandlerFunc) {
		mux.HandleFunc(pattern, s.guard(primaryOnly, h))
	}
	for _, wire := range Wires {
		handle(http.MethodPost+" "+wire.Route, true, func(w http.ResponseWriter, r *http.Request) {
			s.serveSubmit(w, r, wire)
		})
	}
	handle("GET /v1/repl/stream", true, s.handleReplStream)
	handle("GET /v1/repl/snapshot", true, s.handleReplSnapshot)
	handle("GET /v1/jobs/{id}", false, s.handleJob)
	handle("GET /v1/stats", false, s.handleStats)
	handle("GET /healthz", false, s.handleHealth)
	handle("POST /v1/repl/promote", false, s.handleReplPromote)
	if s.mx != nil {
		handle("GET /metrics", false, s.handleMetrics)
	}
	if s.tr != nil {
		handle("GET /debug/traces", false, s.tr.Handler().ServeHTTP)
	}
	var h http.Handler = mux
	if s.mx != nil {
		h = s.mx.http.Wrap(h)
	}
	// Tracing wraps outermost so the root span covers the metrics
	// wrapper too; the two compose in either order (the serve middleware
	// test pins that), this order just keeps the span inclusive.
	h = serve.NewHTTPTracing(s.tr, slog.Default()).Wrap(h)
	return h
}

// writeSubmitError maps a request-decode failure to its status: a body
// past httpx.MaxBody is backpressure (413, counted under its own
// reason), everything else is a plain 400.
func (s *Server) writeSubmitError(w http.ResponseWriter, err error) {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		s.countBackpressure("oversize")
		httpx.WriteTooLarge(w)
		return
	}
	writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: err.Error()})
}

// quotaRetryAfter maps the remainder of the current fleet hour into
// wall seconds through the replay speedup. The quota window is keyed
// to the fleet hour, so this is exactly when the rejected tenant's
// budget resets.
func (s *Server) quotaRetryAfter() int {
	elapsed := s.now().UTC().Sub(s.traceStart)
	rem := time.Hour
	if elapsed > 0 {
		if into := elapsed % time.Hour; into > 0 {
			rem = time.Hour - into
		}
	}
	speed := s.cfg.Speedup
	if speed <= 0 {
		speed = 1
	}
	return max(int(math.Ceil(rem.Seconds()/speed)), 1)
}

// serveSubmit is the submit pipeline, the same for both protocols:
// decode into the pooled batch, step the fleet to the clock, admit,
// wait for the journal, ack. wire supplies the codecs and nothing else,
// so the two routes cannot drift in admission semantics.
func (s *Server) serveSubmit(w http.ResponseWriter, r *http.Request, wire *Wire) {
	if mx := s.mx; mx != nil {
		mx.submits[wire].Inc()
		t0 := time.Now()
		defer func() { mx.submitSeconds.Observe(time.Since(t0).Seconds()) }()
	}
	if wire.RejectType(w, r) {
		return
	}
	ctx := r.Context()
	b := batchPool.Get().(*batch)
	defer putBatch(b)
	_, dsp := tracing.StartSpan(ctx, "schedd.decode")
	err := wire.decode(s, http.MaxBytesReader(w, r.Body, httpx.MaxBody), b)
	dsp.SetAttr(tracing.Int("jobs", len(b.jobs)))
	dsp.End()
	if err != nil {
		s.writeSubmitError(w, err)
		return
	}
	if err := s.advance(ctx); err != nil {
		writeJSON(w, http.StatusInternalServerError, ErrorResponse{Error: err.Error()})
		return
	}
	adm, ref := s.admit(ctx, b)
	if ref != nil {
		ErrorResponse{Error: ref.Message, RetryAfter: ref.RetryAfter}.Respond(w, ref.StatusCode)
		return
	}
	// The durability wait runs after admitMu is released: buffering the
	// record under the lock fixed its order, and waiting outside it
	// lets concurrent submitters share one group-commit fsync instead
	// of serializing a full disk flush each.
	if adm.journal != nil {
		_, wsp := tracing.StartSpan(ctx, "wal.fsync_wait")
		err := adm.journal.WaitSynced(adm.seq)
		wsp.End()
		if err != nil {
			s.poison(err)
			writeJSON(w, http.StatusInternalServerError, ErrorResponse{Error: err.Error()})
			return
		}
	}
	b.ack = wire.WriteAck(w, b.ack[:0], adm.arrival, b.ids)
}

// admission is admit's outcome: the arrival hour the fleet stamped and
// the journal position to wait on before acking (journal is nil when
// the server is not durable).
type admission struct {
	arrival int
	journal *wal.Journal
	seq     uint64
}

// reject is admit's backpressure refusal, counted under reason. A 429
// or 503 carries the Retry-After seconds its cause allows: 0 where no
// retry can succeed (the job store is full, the horizon is over).
func (s *Server) reject(status, retryAfter int, reason, msg string) (admission, *httpx.StatusError) {
	s.countBackpressure(reason)
	return admission{}, &httpx.StatusError{StatusCode: status, Message: msg, RetryAfter: retryAfter}
}

// admit is the admission critical section: bound checks, id
// assignment, fleet insertion, and journal-record buffering are
// deliberately serialized on admitMu so the store/queue bounds stay
// exact, auto-assigned ids can never collide, and journal order equals
// fleet submission order. The section is cheap (validation plus
// map/list inserts plus an in-memory append); lookups, stats and the
// journal fsync never contend with it.
//
// b carries the decoded batch; jobs b.auto marks get an id assigned in
// place, and b.ids is filled with the final assignment. A refused batch
// gets the whole answer: status, message and Retry-After.
func (s *Server) admit(ctx context.Context, b *batch) (admission, *httpx.StatusError) {
	ctx, sp := tracing.StartSpan(ctx, "schedd.admit")
	defer sp.End()
	if sp != nil {
		lockStart := time.Now()
		s.admitMu.Lock()
		sp.SetAttr(tracing.Int("lock_wait_us", int(time.Since(lockStart).Microseconds())))
	} else {
		s.admitMu.Lock()
	}
	defer s.admitMu.Unlock()
	jobs := b.jobs
	if s.fleet.Jobs()+len(jobs) > s.cfg.MaxJobs {
		// The store keeps every resolved job: the batch never fits again.
		return s.reject(http.StatusServiceUnavailable, 0, "job_store_full", "job store full")
	}
	if s.fleet.Outstanding()+len(jobs) > s.cfg.MaxQueue {
		// Capacity drains as the fleet steps; there is no exact bound.
		return s.reject(http.StatusServiceUnavailable, 1, "queue_full", "queue full")
	}
	next := s.nextID
	defer clear(s.inBatch)
	// Reserve the batch's explicit ids before assigning any auto id, so
	// an auto id skips one that appears later in the batch too.
	for i := range jobs {
		if !b.auto[i] {
			s.inBatch[jobs[i].ID] = true
		}
	}
	for i := range jobs {
		if b.auto[i] {
			// Skip ids already taken by earlier submissions or by this
			// batch so auto-assignment can never collide.
			for s.fleet.Has(next) || s.inBatch[next] {
				next++
			}
			jobs[i].ID = next
			next++
		}
		b.ids[i] = jobs[i].ID
	}
	arrival, err := s.submitGated(jobs)
	if err != nil {
		switch {
		case errors.Is(err, sched.ErrHorizonExhausted):
			return s.reject(http.StatusServiceUnavailable, 0, "horizon_exhausted", "replay horizon exhausted")
		case errors.Is(err, tenant.ErrQuota):
			return s.reject(http.StatusTooManyRequests, s.quotaRetryAfter(), "quota", err.Error())
		case errors.Is(err, tenant.ErrRate):
			return s.reject(http.StatusTooManyRequests, max(tenant.RetryAfterSeconds(err), 1), "rate", err.Error())
		}
		return admission{}, &httpx.StatusError{StatusCode: http.StatusBadRequest, Message: err.Error()}
	}
	// Buffer the admission record before acknowledging (SubmitNow
	// stamped the arrivals into jobs). A journal failure poisons the
	// service — the fleet holds state the log does not. A sampled
	// trace's ID rides the record so the replication follower's apply
	// span joins this trace.
	var tid tracing.TraceID
	if sc := tracing.FromContext(ctx); sc.Sampled {
		tid = sc.TraceID
	}
	_, asp := tracing.StartSpan(ctx, "wal.append")
	journal, seq, err := s.journalAdmit(arrival, next, jobs, tid)
	asp.End()
	if err != nil {
		return admission{}, &httpx.StatusError{StatusCode: http.StatusInternalServerError, Message: s.poison(err).Error()}
	}
	s.nextID = next
	return admission{arrival: arrival, journal: journal, seq: seq}, nil
}

// submitGated feeds the batch through SubmitNow with the tenant gate's
// quota/rate check evaluated at the frozen fleet hour — the same hour
// the fleet stamps as arrival, so the check can never race a concurrent
// step — then commits the consumed quota. A batch is atomic: one
// over-quota tenant rejects the whole batch (the 429's message names
// it), which is why tenant-isolating load generators batch per tenant.
// Without a tenant config the gate is nil and admits everything. Must
// be called under admitMu (it reuses the tenantCounts scratch).
func (s *Server) submitGated(jobs []sched.Job) (int, error) {
	defer clear(s.tenantCounts)
	for i := range jobs {
		s.tenantCounts[tenant.Normalize(jobs[i].Tenant)]++
	}
	arrival, err := s.fleet.SubmitNow(func(hour int) error {
		for name, n := range s.tenantCounts {
			if err := s.gate.Check(name, n, hour); err != nil {
				s.countTenantRejected(name, n, err)
				return err
			}
		}
		return nil
	}, jobs...)
	if err != nil {
		return 0, err
	}
	for name, n := range s.tenantCounts {
		s.gate.Commit(name, n, arrival)
	}
	return arrival, nil
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: "job id must be an integer"})
		return
	}
	if err := s.advance(r.Context()); err != nil {
		writeJSON(w, http.StatusInternalServerError, ErrorResponse{Error: err.Error()})
		return
	}
	info, ok := s.fleet.Lookup(id)
	if !ok {
		writeJSON(w, http.StatusNotFound, ErrorResponse{Error: fmt.Sprintf("unknown job %d", id)})
		return
	}
	writeJSON(w, http.StatusOK, jobResponse(info))
}

func jobResponse(info sched.JobInfo) JobResponse {
	resp := JobResponse{
		ID:             info.ID,
		State:          jobState(info),
		Origin:         info.Origin,
		Tenant:         info.Tenant,
		Region:         info.Region,
		ArrivalHour:    info.Arrival,
		DeadlineHour:   info.Deadline(),
		RemainingHours: info.Remaining,
		EmissionsG:     info.Emissions,
		WaitHours:      info.WaitHours,
		Migrations:     info.Migrations,
	}
	if info.Completed {
		resp.CompletedAt = info.CompletedAt
	}
	return resp
}

func jobState(info sched.JobInfo) string {
	switch {
	case info.MissedDeadline:
		return "missed"
	case info.Completed:
		return "done"
	case info.Running:
		return "running"
	default:
		return "queued"
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if err := s.advance(r.Context()); err != nil {
		writeJSON(w, http.StatusInternalServerError, ErrorResponse{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, s.stats())
}

// stats assembles the monitoring view from the fleet's O(1)
// incremental counters — no job-store walk, no global lock.
func (s *Server) stats() StatsResponse {
	st := s.fleet.Stats()
	resp := StatsResponse{
		Policy:          s.cfg.Policy.Name(),
		Gate:            gateParams(s.cfg.Policy),
		Hour:            st.Hour,
		Horizon:         st.Horizon,
		Seed:            s.cfg.Seed,
		Submitted:       st.Submitted,
		Completed:       st.Completed,
		Missed:          st.Missed,
		Running:         st.Running,
		QueueDepth:      st.Queued,
		Unresolved:      st.Unresolved,
		TotalEmissionsG: st.TotalEmissions,
		Utilization:     st.Utilization(),
		Durability:      s.durabilityStats(),
		Replication:     s.replicationStats(),
	}
	if s.cfg.Partitions > 0 {
		resp.Partition = &PartitionInfo{ID: s.cfg.PartitionID, Count: s.cfg.Partitions, IDBase: s.cfg.IDBase}
	}
	if st.Submitted > 0 {
		resp.MissRate = float64(st.Missed) / float64(st.Submitted)
	}
	for _, c := range s.clusters {
		resp.Clusters = append(resp.Clusters, ClusterInfo{Region: c.Region, Slots: c.Slots})
	}
	if cfg := s.cfg.Tenants; cfg != nil {
		resp.TenantConfig = cfg.Tenants
		ts := s.fleet.TenantStats()
		names := make([]string, 0, len(ts))
		for name := range ts {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			t := ts[name]
			sp, _ := cfg.Lookup(name)
			resp.Tenants = append(resp.Tenants, TenantStatsEntry{
				Name:       name,
				Class:      sp.Class,
				Weight:     sp.Weight,
				Submitted:  t.Submitted,
				Completed:  t.Completed,
				Missed:     t.Missed,
				Running:    t.Running,
				QueueDepth: t.Queued,
				Unresolved: t.Unresolved,
				SlotHours:  t.SlotHours,
				EmissionsG: t.Emissions,
			})
		}
	}
	return resp
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if err := s.failure(); err != nil {
		writeJSON(w, http.StatusInternalServerError, ErrorResponse{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// Drain steps the fleet until every submitted job completes or the
// horizon is exhausted, ignoring the clock, and returns the final
// aggregate. Late jobs run to completion past their deadline, exactly
// as in the offline simulation. It is the graceful-shutdown path: stop
// accepting traffic, then let the world run out.
func (s *Server) Drain() (sched.Result, error) {
	s.stepMu.Lock()
	defer s.stepMu.Unlock()
	if _, err := s.stepWhile(func() bool { return !s.fleet.Done() && s.fleet.Outstanding() > 0 }); err != nil {
		return sched.Result{}, err
	}
	if j := s.liveJournal(); j != nil {
		if err := j.Sync(); err != nil {
			return sched.Result{}, s.poison(err)
		}
	}
	return s.fleet.Snapshot(), nil
}

// Snapshot returns the fleet's aggregate result so far.
func (s *Server) Snapshot() sched.Result {
	return s.fleet.Snapshot()
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	httpx.WriteJSON(w, status, v)
}
