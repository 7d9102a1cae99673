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
// every job to its origin's owning partition — internal/schedd's
// TestPartitionedEquivalence, a table of plain worlds of the fault
// harness's partitioned fleet, holds the routed topology to one
// independent sched.Fleet per region group, placement for placement. It
// holds no scheduling state of its own and any number of gateway
// replicas can front the same partitions.
//
// Topology is learned from the partitions themselves: each schedd
// echoes its partition identity and cluster table in /v1/stats, and the
// gateway builds its region→partition routing table from those echoes
// (refreshing on every stats scatter). A request asks a partition not
// yet learned only when it routes by what that partition would teach.
// Each partition is reached through an httpx.Endpoints failover
// client, so a partition's primary dying behind the gateway is survived
// the same way a client-side failover list survives it: dead endpoints
// rotate, follower 421s redirect to the promoted primary. Every such request goes through one
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

	// mu guards the routing table learned from the partitions' stats
	// echoes: each region's owning partition, and by partition index its
	// slot total and id base, both -1 until an echo teaches them.
	mu     sync.Mutex
	owner  map[string]int
	slots  []int
	idBase []int
}

// partition is one schedd deployment behind the gateway.
type partition struct {
	index int
	eps   *httpx.Endpoints
	up    *metrics.Gauge // its gateway_partition_up series; written only by call
}

// New validates the config and builds the gateway. Partitions are not
// contacted here — topology is learned lazily, so the gateway can come
// up first.
func New(cfg Config) (*Gateway, error) {
	if len(cfg.Partitions) == 0 {
		return nil, errors.New("gateway: no partitions configured")
	}
	g := &Gateway{hc: cfg.HTTPClient, owner: make(map[string]int)}
	for i, urls := range cfg.Partitions {
		eps, err := httpx.NewEndpoints(urls)
		if err != nil {
			return nil, fmt.Errorf("gateway: partition %d: %w", i, err)
		}
		g.parts = append(g.parts, &partition{index: i, eps: eps})
		g.slots = append(g.slots, -1)
		g.idBase = append(g.idBase, -1)
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
// into the routing table; nil when the partition did not answer with
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
// unknown, waiting for all of them, and folds the echoes into the
// routing table. It returns an error only when no partition has ever
// been learned AND none is reachable — routing is impossible then; any
// partial knowledge routes. A request calls it only when what it routes
// by is unknown, so a partition that never answers stalls only those.
func (g *Gateway) learn(ctx context.Context) error {
	var unknown []*partition
	g.mu.Lock()
	for i, n := range g.slots {
		if n < 0 {
			unknown = append(unknown, g.parts[i])
		}
	}
	g.mu.Unlock()
	scatter(unknown, func(p *partition) { g.fetchStats(ctx, p) })
	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.owner) == 0 {
		return errors.New("gateway: no partition reachable to learn the routing topology")
	}
	return nil
}

// absorb folds one partition's stats echo into the routing table.
func (g *Gateway) absorb(p *partition, st *schedd.StatsResponse) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, c := range st.Clusters {
		if owner, ok := g.owner[c.Region]; ok && owner != p.index {
			// A region claimed by two partitions would break the
			// disjointness the equivalence proof needs; first claim wins
			// and the conflict is surfaced as a metric.
			g.mx.topoConflicts.Inc()
			continue
		}
		g.owner[c.Region] = p.index
	}
	g.slots[p.index] = slotsOf(st)
	if st.Partition != nil {
		g.idBase[p.index] = st.Partition.IDBase
	}
}

// slotCount is partition i's slot total, or -1 before its stats echo.
func (g *Gateway) slotCount(i int) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.slots[i]
}

// route groups a batch by owning partition under one hold of the
// table: groups[i] lists, in batch order, the indexes of partition i's
// jobs, and known reports whether every origin had a learned owner. A
// job whose origin the table does not know goes by a stable hash of
// the origin — deterministic, so a misrouted unknown origin at least
// always lands on the same partition (which answers the authoritative
// 400). The modulus is taken in uint32, so the index is the same on
// every platform and never negative where int is 32 bits.
func (g *Gateway) route(jobs []schedd.JobRequest) (groups [][]int, known bool) {
	groups, known = make([][]int, len(g.parts)), true
	g.mu.Lock()
	defer g.mu.Unlock()
	for i := range jobs {
		owner, ok := g.owner[jobs[i].Origin]
		if !ok {
			h := fnv.New32a()
			io.WriteString(h, jobs[i].Origin)
			owner, known = int(h.Sum32()%uint32(len(g.parts))), false
		}
		groups[owner] = append(groups[owner], i)
	}
	return groups, known
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
	groups, known := g.route(jobs)
	if !known {
		if err := g.learn(r.Context()); err != nil {
			g.writeUnreachable(w, err)
			return
		}
		groups, _ = g.route(jobs)
	}
	for pi, idx := range groups {
		if len(idx) == len(jobs) {
			// Single-partition batch: raw proxy. Status, error shape, and
			// Retry-After pass through exactly as the partition answered.
			g.mx.proxied.Inc()
			g.proxySubmit(w, r.Context(), g.parts[pi], wire, body)
			return
		}
	}
	g.mx.split.Inc()
	g.splitSubmit(w, r.Context(), wire, jobs, groups)
}

// writeUnreachable maps a gateway-side transport failure to 503 with a
// short Retry-After — the same backpressure shape the partitions use,
// so clients pace instead of hammering.
func (g *Gateway) writeUnreachable(w http.ResponseWriter, err error) {
	schedd.ErrorResponse{Error: err.Error(), RetryAfter: 1}.Respond(w, http.StatusServiceUnavailable)
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
// jobs in batch order — and folds each answer as it comes: accepted
// count and ids, latest arrival, and over the refusals their status if
// all agree (-1 if not), the first message and the largest
// Retry-After. All acked → one merged ack; all refused alike → that
// status verbatim; anything else → 207, the one answer that builds
// per-job outcomes.
func (g *Gateway) splitSubmit(w http.ResponseWriter, ctx context.Context, wire *schedd.Wire, jobs []schedd.JobRequest, groups [][]int) {
	results := make([]subResult, len(groups))
	ids := make([]int, len(jobs))
	accepted, arrival, refused, msg, after := 0, 0, 0, "", 0
	for pi, idx := range groups {
		if len(idx) == 0 {
			continue
		}
		sub := make([]schedd.JobRequest, len(idx))
		for j, i := range idx {
			sub[j] = jobs[i]
		}
		r := g.submitSub(ctx, g.parts[pi], wire, sub)
		results[pi] = r
		if r.status == http.StatusOK {
			for j, i := range idx {
				ids[i] = r.ids[j]
			}
			accepted, arrival = accepted+len(idx), max(arrival, r.arrival)
			continue
		}
		if refused == 0 {
			refused = r.status
		} else if refused != r.status {
			refused = -1
		}
		if msg == "" {
			msg = r.errMsg
		}
		after = max(after, r.retryAfter)
	}
	switch {
	case accepted == len(jobs):
		wire.WriteAck(w, nil, arrival, ids)
	case accepted == 0 && refused > 0:
		schedd.ErrorResponse{Error: msg, RetryAfter: after}.Respond(w, refused)
	default:
		g.mx.partial.Inc()
		ms := schedd.MultiStatusResponse{ArrivalHour: arrival, Accepted: accepted,
			Outcomes: make([]schedd.JobOutcome, len(jobs))}
		for pi, idx := range groups {
			r := results[pi]
			for _, i := range idx {
				ms.Outcomes[i] = schedd.JobOutcome{Partition: pi, Status: r.status, ID: ids[i]}
				if r.status != http.StatusOK {
					ms.Outcomes[i].Error, ms.Outcomes[i].RetryAfter = r.errMsg, r.retryAfter
				}
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
		if err == nil && len(ack.IDs) != len(sub) {
			err = fmt.Errorf("%d ids for %d jobs", len(ack.IDs), len(sub))
		}
		if err != nil {
			// The partition admitted the sub-batch; an ack the gateway
			// cannot read, or that does not give one id per job, is
			// neither a success nor something to send again.
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
	owner := g.idOwner(id)
	if owner < 0 {
		if err := g.learn(r.Context()); err != nil {
			g.writeUnreachable(w, err)
			return
		}
		owner = g.idOwner(id)
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
	if owner >= 0 && ask(g.parts[owner]) {
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
	g.mu.Lock()
	defer g.mu.Unlock()
	owner, best := -1, -1
	for i, base := range g.idBase {
		if base <= id && base > best {
			owner, best = i, base
		}
	}
	return owner
}
