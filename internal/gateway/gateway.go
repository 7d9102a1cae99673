// Package gateway is the stateless routing tier in front of a
// partitioned schedd fleet. Each partition is an independent
// multi-primary deployment — its own sched.Fleet, WAL, and hot
// standby — owning a disjoint region group; the gateway is the single
// client-facing endpoint that makes N partitions look like one
// service:
//
//	POST /v1/jobs          route/split a JSON submission by origin region
//	POST /v1/jobs/batch    the same for the binary batch protocol
//	GET  /v1/jobs/{id}     proxy by id-range ownership, fan-out fallback
//	GET  /v1/stats         scatter-gather into a fleet-wide merged view
//	GET  /metrics          merged partition expositions + gateway_* families
//	GET  /healthz          gateway liveness
//
// Correctness rests on two facts: each partition is an independent
// fleet over its own region group, sharing no slots, queue or clock
// state with the others, and each partition's id range is disjoint
// (schedd.Config.IDBase). The gateway therefore only needs to route
// every job to its origin's owning partition — TestPartitionedEquivalence
// holds the routed topology to one independent sched.Fleet per
// region group, placement for placement. It holds no scheduling state of
// its own and any number of gateway replicas can front the same
// partitions.
//
// Topology is learned from the partitions themselves: each schedd
// echoes its partition identity and cluster table in /v1/stats, and the
// gateway builds its region→partition routing table from those echoes
// (refreshing on every stats scatter). Each partition is reached
// through an httpx.Endpoints failover client, so a partition's primary
// dying behind the gateway is survived the same way a client-side
// failover list survives it: dead endpoints rotate, follower 421s
// redirect to the promoted primary. Every such request goes through one
// function, call — the only writer of gateway_partition_up and
// gateway_partition_errors_total, so every call kind (submit, lookup,
// stats, scrape) reports partition health the same way — and every
// concurrent fan-out is one function, scatter.
//
// A batch that lands entirely in one partition is proxied raw — the
// partition's status, JSON error shape, and Retry-After hint pass
// through byte-for-byte, so the backpressure taxonomy is indistinguishable
// from talking to the partition directly. A mixed batch is split into
// per-partition sub-batches submitted in ascending partition order
// (preserving each partition's submission order); fully-acked splits
// merge into one ordinary ack, uniform failures collapse to the shared
// status with the largest Retry-After, and anything else answers 207
// Multi-Status with per-job outcomes (schedd.MultiStatusResponse) so
// no admitted job is ever double-counted or lost.
package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"

	"carbonshift/internal/httpx"
	"carbonshift/internal/metrics"
	"carbonshift/internal/schedd"
)

// Config wires a Gateway to its partitions.
type Config struct {
	// Partitions lists each partition's base URLs (primary first,
	// standbys after) in partition order. At least one required.
	Partitions [][]string
	// HTTPClient is the transport for every partition call (nil =
	// http.DefaultClient).
	HTTPClient *http.Client
}

// Gateway is the routing front. Stateless by design: everything it
// knows beyond Config is re-learnable from the partitions' /v1/stats.
type Gateway struct {
	hc    *http.Client
	parts []*partition
	mx    *gwMetrics

	// topoMu guards the learned routing tables.
	topoMu      sync.Mutex
	regionOwner map[string]int // region -> partition index
}

// partition is one schedd deployment behind the gateway.
type partition struct {
	index int
	eps   *httpx.Endpoints
	up    *metrics.Gauge // its gateway_partition_up series; written only by call

	mu      sync.Mutex
	learned bool
	idBase  int
	hasID   bool
}

// New validates the config and builds the gateway. Partitions are not
// contacted here — topology is learned lazily, so the gateway can come
// up first.
func New(cfg Config) (*Gateway, error) {
	if len(cfg.Partitions) == 0 {
		return nil, errors.New("gateway: no partitions configured")
	}
	g := &Gateway{
		hc:          cfg.HTTPClient,
		regionOwner: make(map[string]int),
	}
	if g.hc == nil {
		g.hc = http.DefaultClient
	}
	for i, urls := range cfg.Partitions {
		eps, err := httpx.NewEndpoints(urls)
		if err != nil {
			return nil, fmt.Errorf("gateway: partition %d: %w", i, err)
		}
		g.parts = append(g.parts, &partition{index: i, eps: eps})
	}
	g.initMetrics()
	return g, nil
}

// Handler returns the gateway's HTTP handler.
func (g *Gateway) Handler() http.Handler {
	mux := http.NewServeMux()
	for _, wire := range schedd.Wires {
		mux.HandleFunc(http.MethodPost+" "+wire.Route, func(w http.ResponseWriter, r *http.Request) {
			g.handleSubmit(w, r, wire)
		})
	}
	mux.HandleFunc("GET /v1/jobs/{id}", g.handleJob)
	mux.HandleFunc("GET /v1/stats", g.handleStats)
	mux.HandleFunc("GET /metrics", g.handleMetrics)
	mux.HandleFunc("GET /healthz", g.handleHealth)
	return g.mx.http.Wrap(mux)
}

func (g *Gateway) handleHealth(w http.ResponseWriter, r *http.Request) {
	httpx.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// ---- reaching the partitions ----

// call is the one way the gateway reaches a partition: one request
// through the partition's failover rotation, and the only place
// partition health is recorded. A transport failure (every endpoint
// dead or unanswering) counts an error and marks the partition down;
// any answer, whatever its status, marks it up — so every call kind
// refreshes gateway_partition_up, not only submits.
func (g *Gateway) call(ctx context.Context, p *partition, method, path, contentType string, payload []byte) (*httpx.Response, error) {
	resp, err := p.eps.Do(ctx, g.hc, method, path, contentType, payload, "gateway")
	if err != nil && httpx.StatusCodeOf(err) == 0 {
		g.mx.partErrors.With(strconv.Itoa(p.index)).Inc()
		p.up.Set(0)
	} else {
		// An error that carries a status (a read that drew 5xx from every
		// endpoint) is still the partition answering.
		p.up.Set(1)
	}
	return resp, err
}

// scatter runs fn once per partition in parts, concurrently, and
// returns when every call has. fn writes only state it owns (its
// partition's slot of a result slice) or state with its own lock.
func scatter(parts []*partition, fn func(p *partition)) {
	var wg sync.WaitGroup
	for _, p := range parts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(p)
		}()
	}
	wg.Wait()
}

// ---- topology ----

// fetchStats gets one partition's /v1/stats and folds its topology echo
// into the routing tables; nil when the partition did not answer with
// stats.
func (g *Gateway) fetchStats(ctx context.Context, p *partition) *schedd.StatsResponse {
	resp, err := g.call(ctx, p, http.MethodGet, "/v1/stats", "", nil)
	if err != nil {
		return nil
	}
	var st schedd.StatsResponse
	if resp.Decode("gateway", &st) != nil {
		return nil
	}
	g.absorb(p, &st)
	return &st
}

// learn fetches /v1/stats from every partition whose topology is still
// unknown and folds the echoes into the routing tables. It returns an
// error only when no partition has ever been learned AND none is
// reachable — routing is impossible then; any partial knowledge routes.
func (g *Gateway) learn(ctx context.Context) error {
	var unknown []*partition
	for _, p := range g.parts {
		p.mu.Lock()
		if !p.learned {
			unknown = append(unknown, p)
		}
		p.mu.Unlock()
	}
	if len(unknown) > 0 { // the steady state allocates nothing: learn runs on every submit
		scatter(unknown, func(p *partition) { g.fetchStats(ctx, p) })
	}
	g.topoMu.Lock()
	defer g.topoMu.Unlock()
	if len(g.regionOwner) == 0 {
		return errors.New("gateway: no partition reachable to learn the routing topology")
	}
	return nil
}

// absorb folds one partition's stats echo into the routing tables.
func (g *Gateway) absorb(p *partition, st *schedd.StatsResponse) {
	g.topoMu.Lock()
	for _, c := range st.Clusters {
		if owner, ok := g.regionOwner[c.Region]; ok && owner != p.index {
			// A region claimed by two partitions would break the
			// disjointness the equivalence proof needs; first claim wins
			// and the conflict is surfaced as a metric.
			g.mx.topoConflicts.Inc()
			continue
		}
		g.regionOwner[c.Region] = p.index
	}
	g.topoMu.Unlock()

	p.mu.Lock()
	p.learned = true
	if st.Partition != nil {
		p.idBase = st.Partition.IDBase
		p.hasID = true
	}
	p.mu.Unlock()
}

// routeJob picks the owning partition for one job: its origin's region
// group when the topology knows it, otherwise a stable hash of the
// origin — deterministic, so a misrouted unknown origin at least always
// lands on the same partition (which answers the authoritative 400).
// The modulus is taken in uint32, so the index is the same on every
// platform and never negative where int is 32 bits.
func (g *Gateway) routeJob(job *schedd.JobRequest) int {
	g.topoMu.Lock()
	owner, ok := g.regionOwner[job.Origin]
	g.topoMu.Unlock()
	if ok {
		return owner
	}
	h := fnv.New32a()
	io.WriteString(h, job.Origin)
	return int(h.Sum32() % uint32(len(g.parts)))
}

// ---- submission ----

// handleSubmit serves one submit route. wire is the protocol the route
// speaks — the same schedd.Wire value the partitions serve it with, so
// the media-type check, the decoder and the ack codec are theirs.
func (g *Gateway) handleSubmit(w http.ResponseWriter, r *http.Request, wire *schedd.Wire) {
	// Before the body is read, as on the partition: a mis-typed request
	// is a 415 however large it is.
	if wire.RejectType(w, r) {
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, httpx.MaxBody))
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			httpx.WriteTooLarge(w) // the partitions' own 413
			return
		}
		httpx.WriteJSON(w, http.StatusBadRequest, schedd.ErrorResponse{Error: err.Error()})
		return
	}
	jobs, err := wire.DecodeSubmit(bytes.NewReader(body))
	if err != nil {
		// The decode errors carry the partitions' own message shapes, so
		// a 400 reads the same with or without the gateway in front.
		httpx.WriteJSON(w, http.StatusBadRequest, schedd.ErrorResponse{Error: err.Error()})
		return
	}
	if err := g.learn(r.Context()); err != nil {
		g.writeUnreachable(w, err)
		return
	}

	// Group the batch by owning partition, preserving batch order
	// within each group.
	byPart := make(map[int][]int) // partition -> original indexes
	var order []int               // partitions in first-appearance order
	for i := range jobs {
		pi := g.routeJob(&jobs[i])
		if _, ok := byPart[pi]; !ok {
			order = append(order, pi)
		}
		byPart[pi] = append(byPart[pi], i)
	}

	if len(order) == 1 {
		// Single-partition batch: raw proxy. Status, error shape, and
		// Retry-After pass through exactly as the partition answered.
		g.mx.proxied.Inc()
		g.proxySubmit(w, r.Context(), g.parts[order[0]], wire, body)
		return
	}
	g.mx.split.Inc()
	g.splitSubmit(w, r.Context(), wire, jobs, byPart)
}

// writeUnreachable maps a gateway-side transport failure to 503 with a
// short Retry-After — the same backpressure shape the partitions use,
// so clients pace instead of hammering.
func (g *Gateway) writeUnreachable(w http.ResponseWriter, err error) {
	w.Header().Set("Retry-After", "1")
	httpx.WriteJSON(w, http.StatusServiceUnavailable,
		schedd.ErrorResponse{Error: err.Error(), RetryAfter: 1})
}

// proxySubmit forwards one already-read submit body to a partition and
// relays the response verbatim. The Endpoints client absorbs failover
// (dead primary rotation, 421 redirects); whatever status survives that
// is the partition's real answer and is passed through, with the
// Retry-After header re-stamped from the in-body hint.
func (g *Gateway) proxySubmit(w http.ResponseWriter, ctx context.Context, p *partition, wire *schedd.Wire, body []byte) {
	resp, err := g.call(ctx, p, http.MethodPost, wire.Route, wire.ContentType, body)
	if err != nil {
		g.writeUnreachable(w, fmt.Errorf("partition %d unreachable: %w", p.index, err))
		return
	}
	if resp.StatusCode == http.StatusOK {
		w.Header().Set("Content-Type", wire.ContentType)
	} else {
		w.Header().Set("Content-Type", "application/json")
		var eb schedd.ErrorResponse
		if json.Unmarshal(resp.Body, &eb) == nil && eb.RetryAfter > 0 {
			w.Header().Set("Retry-After", strconv.Itoa(eb.RetryAfter))
		}
	}
	w.WriteHeader(resp.StatusCode)
	w.Write(resp.Body)
}

// subResult is one partition's answer for its sub-batch.
type subResult struct {
	status     int
	ids        []int
	arrival    int
	errMsg     string
	retryAfter int
}

// splitSubmit fans a mixed batch out to its owning partitions —
// serially, in ascending partition order, so each partition sees its
// jobs in batch order — and folds the per-partition answers back into
// one response.
func (g *Gateway) splitSubmit(w http.ResponseWriter, ctx context.Context, wire *schedd.Wire, jobs []schedd.JobRequest, byPart map[int][]int) {
	parts := make([]int, 0, len(byPart))
	for pi := range byPart {
		parts = append(parts, pi)
	}
	sort.Ints(parts)

	results := make(map[int]subResult, len(parts))
	for _, pi := range parts {
		idx := byPart[pi]
		sub := make([]schedd.JobRequest, len(idx))
		for j, i := range idx {
			sub[j] = jobs[i]
		}
		results[pi] = g.submitSub(ctx, g.parts[pi], wire, sub)
	}

	// Fold. All-acked → a plain merged ack; uniform failure → that
	// status verbatim with the largest Retry-After; mixed → 207 with
	// per-job outcomes.
	allOK, allFail, uniform := true, true, -1
	for _, pi := range parts {
		r := results[pi]
		if r.status == http.StatusOK {
			allFail = false
		} else {
			allOK = false
			if uniform == -1 {
				uniform = r.status
			} else if uniform != r.status {
				uniform = 0
			}
		}
	}
	switch {
	case allOK:
		ids, arrival := make([]int, len(jobs)), 0
		for _, pi := range parts {
			r := results[pi]
			for j, i := range byPart[pi] {
				ids[i] = r.ids[j]
			}
			if r.arrival > arrival {
				arrival = r.arrival
			}
		}
		wire.WriteAck(w, nil, arrival, ids)
	case allFail && uniform > 0:
		first, after := "", 0
		for _, pi := range parts {
			r := results[pi]
			if first == "" {
				first = r.errMsg
			}
			if r.retryAfter > after {
				after = r.retryAfter
			}
		}
		if after > 0 {
			w.Header().Set("Retry-After", strconv.Itoa(after))
		}
		httpx.WriteJSON(w, uniform, schedd.ErrorResponse{Error: first, RetryAfter: after})
	default:
		g.mx.partial.Inc()
		ms := schedd.MultiStatusResponse{Outcomes: make([]schedd.JobOutcome, len(jobs))}
		for _, pi := range parts {
			r := results[pi]
			for j, i := range byPart[pi] {
				o := schedd.JobOutcome{Partition: pi, Status: r.status}
				if r.status == http.StatusOK {
					o.ID = r.ids[j]
					ms.Accepted++
					if r.arrival > ms.ArrivalHour {
						ms.ArrivalHour = r.arrival
					}
				} else {
					o.Error = r.errMsg
					o.RetryAfter = r.retryAfter
				}
				ms.Outcomes[i] = o
			}
		}
		// 207 on both routes is JSON: only 200 acks are binary, exactly
		// as on the partitions' own error paths.
		httpx.WriteJSON(w, http.StatusMultiStatus, ms)
	}
}

// submitSub submits one partition's sub-batch over the request's wire
// and normalizes the answer into a subResult. A transport failure
// (every endpoint dead) is a synthetic 503 — retryable backpressure
// from the client's point of view.
func (g *Gateway) submitSub(ctx context.Context, p *partition, wire *schedd.Wire, sub []schedd.JobRequest) subResult {
	payload, err := wire.AppendSubmit(nil, sub)
	if err != nil {
		return subResult{status: http.StatusInternalServerError, errMsg: err.Error()}
	}
	resp, err := g.call(ctx, p, http.MethodPost, wire.Route, wire.ContentType, payload)
	if err != nil {
		return subResult{status: http.StatusServiceUnavailable,
			errMsg: fmt.Sprintf("partition %d unreachable: %v", p.index, err), retryAfter: 1}
	}
	if resp.StatusCode == http.StatusOK {
		ack, err := wire.DecodeAck(resp.Body)
		if err != nil {
			// The partition admitted the sub-batch; an ack the gateway
			// cannot read is neither a success nor something to send again.
			return subResult{status: http.StatusBadGateway,
				errMsg: fmt.Sprintf("partition %d: bad ack: %v", p.index, err)}
		}
		return subResult{status: http.StatusOK, ids: ack.IDs, arrival: ack.ArrivalHour}
	}
	res := subResult{status: resp.StatusCode, errMsg: resp.Status}
	var eb schedd.ErrorResponse
	if json.Unmarshal(resp.Body, &eb) == nil && eb.Error != "" {
		res.errMsg, res.retryAfter = eb.Error, eb.RetryAfter
	}
	return res
}

// ---- job lookup ----

// handleJob proxies GET /v1/jobs/{id}. Partition id ranges are
// disjoint (IDBase), so the owner is the partition whose base is the
// greatest one not exceeding the id; a miss there (explicit client ids
// can land anywhere) falls back to asking every other partition.
func (g *Gateway) handleJob(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		httpx.WriteJSON(w, http.StatusBadRequest, schedd.ErrorResponse{Error: "job id must be an integer"})
		return
	}
	if err := g.learn(r.Context()); err != nil {
		g.writeUnreachable(w, err)
		return
	}
	// A partition that answers with a status other than 404 has not
	// denied the id — it failed to look it up — so that failure, not
	// "unknown job", is the answer when no partition finds the job.
	tried := make([]bool, len(g.parts))
	var transportErr, failedErr error
	ask := func(p *partition) bool {
		tried[p.index] = true
		var out schedd.JobResponse
		resp, err := g.call(r.Context(), p, http.MethodGet, fmt.Sprintf("/v1/jobs/%d", id), "", nil)
		if err == nil {
			err = resp.Decode("gateway", &out)
		}
		if err == nil {
			httpx.WriteJSON(w, http.StatusOK, out)
			return true
		}
		switch httpx.StatusCodeOf(err) {
		case 0:
			transportErr = err
		case http.StatusNotFound: // denied: not this partition's job
		default:
			failedErr = fmt.Errorf("job %d: partition %d: %w", id, p.index, err)
		}
		return false
	}
	if owner := g.idOwner(id); owner >= 0 && ask(g.parts[owner]) {
		return
	}
	for _, p := range g.parts {
		if !tried[p.index] && ask(p) {
			return
		}
	}
	switch {
	case failedErr != nil:
		httpx.WriteJSON(w, http.StatusBadGateway, schedd.ErrorResponse{Error: failedErr.Error()})
	case transportErr != nil:
		g.writeUnreachable(w, fmt.Errorf("job %d: partition unreachable: %w", id, transportErr))
	default:
		httpx.WriteJSON(w, http.StatusNotFound, schedd.ErrorResponse{Error: fmt.Sprintf("unknown job %d", id)})
	}
}

// idOwner returns the partition owning id by IDBase range, or -1 when
// no partition has echoed an id base.
func (g *Gateway) idOwner(id int) int {
	owner, base := -1, -1
	for _, p := range g.parts {
		p.mu.Lock()
		has, pb := p.hasID, p.idBase
		p.mu.Unlock()
		if has && pb <= id && pb > base {
			owner, base = p.index, pb
		}
	}
	return owner
}
