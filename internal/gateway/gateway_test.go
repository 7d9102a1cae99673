package gateway

// Service-level tests for the routing gateway: the partial-failure
// contract (no acked job lost or double-counted when a split batch
// half-fails), the backpressure taxonomy passing through unmodified,
// the fleet-wide stats and metrics merges, and id-range job routing.

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"carbonshift/internal/httpx"
	"carbonshift/internal/metrics"
	"carbonshift/internal/sched"
	"carbonshift/internal/schedd"
	"carbonshift/internal/tenant"
)

// twoPartitions builds a two-region world split one region per
// partition, with per-partition config edits, and a gateway in front.
func twoPartitions(t *testing.T, edit func(i int, cfg *schedd.Config)) (*Gateway, *httptest.Server, []*schedd.Server, []*httptest.Server, *hourClock) {
	t.Helper()
	const horizon = 24 * 5
	set, cl, origins := mkWorld(t, horizon, 2, 4)
	groups := groupSplit(origins, 2)
	clock := &hourClock{}
	srvs := make([]*schedd.Server, 2)
	tss := make([]*httptest.Server, 2)
	var urls [][]string
	for i := 0; i < 2; i++ {
		sub, subcl := subWorld(t, set, cl, groups[i])
		cfg := schedd.Config{
			Policy:      sched.FIFO{},
			Horizon:     horizon,
			Partitions:  2,
			PartitionID: i,
			IDBase:      i * 1_000_000,
		}
		if edit != nil {
			edit(i, &cfg)
		}
		srv, err := schedd.New(sub, subcl, cfg, schedd.WithClock(clock.now))
		if err != nil {
			t.Fatal(err)
		}
		srvs[i] = srv
		tss[i] = httptest.NewServer(srv.Handler())
		t.Cleanup(tss[i].Close)
		urls = append(urls, []string{tss[i].URL})
	}
	gw, gwts := startGateway(t, urls)
	return gw, gwts, srvs, tss, clock
}

func job(origin string) schedd.JobRequest {
	return schedd.JobRequest{Origin: origin, LengthHours: 1, SlackHours: 24}
}

// TestUnknownOriginRoute pins the stable-hash fallback for origins the
// topology does not know: the same partition on every platform, never
// a negative index where int is 32 bits (GOARCH=386).
func TestUnknownOriginRoute(t *testing.T) {
	gw, err := New(Config{Partitions: [][]string{{"http://p0"}, {"http://p1"}, {"http://p2"}}})
	if err != nil {
		t.Fatal(err)
	}
	for origin, want := range map[string]int{"A": 0, "nope": 1, "XX-UNKNOWN": 2, "mars": 1, "R99": 0, "": 1, "zz": 0} {
		j := job(origin)
		if got := gw.routeJob(&j); got != want {
			t.Errorf("origin %q routes to partition %d, want %d", origin, got, want)
		}
	}
}

// TestPartialFailureOutcomes is the satellite-3 regression: a mixed
// batch whose sub-batches succeed on one partition and fail on another
// must answer 207 with per-job outcomes — the acked ids reported
// exactly once, the rejections with their partition, status, and
// Retry-After — on both wire protocols.
func TestPartialFailureOutcomes(t *testing.T) {
	// Partition 1 can hold one outstanding job; partition 0 is roomy.
	_, gwts, _, _, _ := twoPartitions(t, func(i int, cfg *schedd.Config) {
		if i == 1 {
			cfg.MaxQueue = 1
		}
	})
	client, err := schedd.NewClient(gwts.URL, gwts.Client())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	for _, binary := range []bool{false, true} {
		proto := "json"
		submit := client.Submit
		if binary {
			proto, submit = "binary", client.SubmitBatch
		}
		t.Run(proto, func(t *testing.T) {
			// R00 routes to partition 0 (accepts), the two R01 jobs to
			// partition 1 (queue bound 1: the 2-job sub-batch is refused).
			_, err := submit(ctx, job("R00"), job("R01"), job("R01"))
			var pe *schedd.PartialError
			if !errors.As(err, &pe) {
				t.Fatalf("err = %v, want *schedd.PartialError", err)
			}
			if pe.Resp.Accepted != 1 || len(pe.Resp.Outcomes) != 3 {
				t.Fatalf("accepted %d of %d outcomes, want 1 of 3", pe.Resp.Accepted, len(pe.Resp.Outcomes))
			}
			acked := pe.AckedIDs()
			if len(acked) != 1 {
				t.Fatalf("acked ids %v, want exactly one", acked)
			}
			o0, o1, o2 := pe.Resp.Outcomes[0], pe.Resp.Outcomes[1], pe.Resp.Outcomes[2]
			if o0.Status != http.StatusOK || o0.Partition != 0 || o0.ID != acked[0] {
				t.Fatalf("outcome 0 = %+v, want admitted on partition 0", o0)
			}
			for i, o := range []schedd.JobOutcome{o1, o2} {
				if o.Status != http.StatusServiceUnavailable || o.Partition != 1 {
					t.Fatalf("outcome %d = %+v, want 503 from partition 1", i+1, o)
				}
				if !strings.Contains(o.Error, "queue full") {
					t.Fatalf("outcome %d error %q, want queue full", i+1, o.Error)
				}
				if o.RetryAfter != 1 {
					t.Fatalf("outcome %d retry_after = %d, want 1", i+1, o.RetryAfter)
				}
			}
			if pe.MaxRetryAfter() != 1 {
				t.Fatalf("MaxRetryAfter = %d, want 1", pe.MaxRetryAfter())
			}
			// The admitted job is real: it is queryable through the
			// gateway, so a retry of the failed jobs cannot double it.
			got, err := client.Job(ctx, acked[0])
			if err != nil {
				t.Fatal(err)
			}
			if got.ID != acked[0] || got.Origin != "R00" {
				t.Fatalf("job lookup = %+v, want id %d origin R00", got, acked[0])
			}
		})
	}

	// On the wire the partial outcome is a 207 Multi-Status with a JSON
	// body, on both routes.
	resp, err := http.Post(gwts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"jobs":[{"origin":"R00","length_hours":1,"slack_hours":24},{"origin":"R01","length_hours":1,"slack_hours":24},{"origin":"R01","length_hours":1,"slack_hours":24}]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusMultiStatus {
		t.Fatalf("raw split status %d, want 207", resp.StatusCode)
	}
	var ms schedd.MultiStatusResponse
	if err := json.NewDecoder(resp.Body).Decode(&ms); err != nil {
		t.Fatal(err)
	}
	if ms.Accepted != 1 || len(ms.Outcomes) != 3 {
		t.Fatalf("raw 207 body = %+v, want 1 accepted of 3 outcomes", ms)
	}
}

// TestUndecodableAckIs502: a partition that answers 200 with an ack the
// gateway cannot read — a binary frame cut mid-payload, one with a CRC
// bit flipped, JSON that is not JSON — has admitted the sub-batch, so
// the gateway must neither call it a success nor send it again. Those
// jobs come back as 502 "partition N: bad ack: …" outcomes in the 207
// beside the other partition's real ids, and the partition — listed
// here with two endpoints, so a replay would have somewhere to go — saw
// the sub-batch exactly once.
func TestUndecodableAckIs502(t *testing.T) {
	for _, tc := range []struct {
		name   string
		wire   *schedd.Wire
		mangle func(ack []byte) []byte
	}{
		{"binary ack cut mid-payload", schedd.BinaryWire, func(ack []byte) []byte { return ack[:len(ack)-1] }},
		// Bytes 9–12 of an ack frame are its CRC.
		{"binary ack with a flipped CRC bit", schedd.BinaryWire, func(ack []byte) []byte { ack[10] ^= 0x04; return ack }},
		{"not json", schedd.JSONWire, func([]byte) []byte { return []byte("not json") }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, _, srvs, tss, _ := twoPartitions(t, nil)
			// Partition 1's real server behind a front that lets every
			// submit through, then spoils the 200 on its way back.
			var submits atomic.Int32
			real := srvs[1].Handler()
			front := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.Method != http.MethodPost {
					real.ServeHTTP(w, r)
					return
				}
				submits.Add(1)
				rec := httptest.NewRecorder()
				real.ServeHTTP(rec, r)
				if rec.Code != http.StatusOK {
					t.Errorf("partition 1 answered %d to the sub-batch, want 200", rec.Code)
				}
				w.Header().Set("Content-Type", rec.Header().Get("Content-Type"))
				w.Write(tc.mangle(rec.Body.Bytes()))
			})
			var spoiled []string
			for i := 0; i < 2; i++ {
				ts := httptest.NewServer(front)
				t.Cleanup(ts.Close)
				spoiled = append(spoiled, ts.URL)
			}
			_, gwts := startGateway(t, [][]string{{tss[0].URL}, spoiled})
			client, err := schedd.NewClient(gwts.URL, gwts.Client())
			if err != nil {
				t.Fatal(err)
			}
			submit := client.Submit
			if tc.wire == schedd.BinaryWire {
				submit = client.SubmitBatch
			}

			_, err = submit(context.Background(), job("R01"), job("R00"), job("R01"))
			var pe *schedd.PartialError
			if !errors.As(err, &pe) {
				t.Fatalf("err = %v, want *schedd.PartialError", err)
			}
			if pe.Resp.Accepted != 1 || len(pe.Resp.Outcomes) != 3 {
				t.Fatalf("207 = %+v, want 1 accepted of 3 outcomes", pe.Resp)
			}
			for i, o := range pe.Resp.Outcomes {
				if i == 1 {
					if o.Status != http.StatusOK || o.Partition != 0 {
						t.Fatalf("outcome 1 = %+v, want admitted on partition 0", o)
					}
					if got, err := client.Job(context.Background(), o.ID); err != nil || got.Origin != "R00" {
						t.Fatalf("lookup of acked id %d = %+v, %v", o.ID, got, err)
					}
					continue
				}
				if o.Status != http.StatusBadGateway || o.Partition != 1 || o.ID != 0 ||
					!strings.HasPrefix(o.Error, "partition 1: bad ack: ") {
					t.Fatalf("outcome %d = %+v, want 502 \"partition 1: bad ack: …\"", i, o)
				}
			}
			if n := submits.Load(); n != 1 {
				t.Fatalf("partition 1 saw the sub-batch %d times, want exactly once", n)
			}
			// The write the gateway could not read the ack of is real.
			if st := srvs[1].Snapshot(); len(st.Outcomes) != 2 {
				t.Fatalf("partition 1 holds %d jobs, want the 2 it admitted", len(st.Outcomes))
			}
		})
	}
}

// TestUniformSplitFailureCollapses: when every sub-batch fails with the
// same status, the gateway answers that status verbatim (not a 207),
// with the largest Retry-After — a fully-rejected batch looks exactly
// like a single-partition rejection.
func TestUniformSplitFailureCollapses(t *testing.T) {
	_, gwts, _, _, _ := twoPartitions(t, func(i int, cfg *schedd.Config) {
		cfg.MaxQueue = 1
	})
	client, err := schedd.NewClient(gwts.URL, gwts.Client())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	_, err = client.Submit(ctx, job("R00"), job("R00"), job("R01"), job("R01"))
	var pe *schedd.PartialError
	if errors.As(err, &pe) {
		t.Fatalf("uniform failure surfaced as partial: %v", err)
	}
	wantStatus(t, "uniform split failure", err, http.StatusServiceUnavailable, "queue full")
	if got := httpx.RetryAfterOf(err); got != 1 {
		t.Fatalf("Retry-After = %d, want 1", got)
	}
}

// TestPartialFailurePartitionDown: a partition dying mid-split yields
// synthetic 503 outcomes for its jobs — retryable backpressure — while
// the live partition's acks still count exactly once.
func TestPartialFailurePartitionDown(t *testing.T) {
	gw, gwts, _, tss, _ := twoPartitions(t, nil)
	client, err := schedd.NewClient(gwts.URL, gwts.Client())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	// Learn the topology while both partitions are up, then kill one.
	if _, err := client.Stats(ctx); err != nil {
		t.Fatal(err)
	}
	tss[1].Close()

	_, err = client.Submit(ctx, job("R00"), job("R01"))
	var pe *schedd.PartialError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *schedd.PartialError", err)
	}
	if pe.Resp.Accepted != 1 {
		t.Fatalf("accepted %d, want 1", pe.Resp.Accepted)
	}
	down := pe.Resp.Outcomes[1]
	if down.Status != http.StatusServiceUnavailable || down.Partition != 1 ||
		!strings.Contains(down.Error, "unreachable") || down.RetryAfter != 1 {
		t.Fatalf("down outcome = %+v, want synthetic 503 unreachable with retry_after 1", down)
	}

	// The failure is visible in the gateway's own metrics.
	var buf strings.Builder
	gw.Metrics().WriteTo(&buf)
	sc, err := metrics.ParseText(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := sc.Value(`gateway_partition_up{partition="1"}`); v != 0 {
		t.Fatalf(`gateway_partition_up{partition="1"} = %v, want 0`, v)
	}
	if v, _ := sc.Value(`gateway_partition_up{partition="0"}`); v != 1 {
		t.Fatalf(`gateway_partition_up{partition="0"} = %v, want 1`, v)
	}
	if sc.Sum("gateway_partition_errors_total") == 0 {
		t.Fatal("gateway_partition_errors_total not incremented")
	}
}

// TestBackpressureTaxonomyThroughGateway is the satellite-4 contract:
// 429 quota, 429 rate, 503 capacity, and 413 oversize pass through the
// gateway unmodified — status, JSON error message, and Retry-After —
// on both wire protocols, through both the single-endpoint and the
// failover client.
func TestBackpressureTaxonomyThroughGateway(t *testing.T) {
	tcfg, err := tenant.NewConfig([]tenant.Spec{
		{Name: "q", QuotaJobsPerHour: 1},
		{Name: "r", RatePerSec: 0.001, Burst: 1},
		{Name: "*"},
	})
	if err != nil {
		t.Fatal(err)
	}
	const horizon = 24 * 5
	set, cl, _ := mkWorld(t, horizon, 1, 1)
	clock := &hourClock{}
	wc := &wallClock{t: t0}
	srv, err := schedd.New(set, cl, schedd.Config{
		Policy: sched.FIFO{}, Horizon: horizon, MaxQueue: 4, Tenants: tcfg,
		Partitions: 1, PartitionID: 0,
	}, schedd.WithClock(clock.now), schedd.WithGateClock(wc.now))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	gw, gwts := startGateway(t, [][]string{{ts.URL}})

	single, err := schedd.NewClient(gwts.URL, gwts.Client())
	if err != nil {
		t.Fatal(err)
	}
	failover, err := schedd.NewFailoverClient([]string{gwts.URL}, gwts.Client())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	tj := func(tenantName, origin string) schedd.JobRequest {
		return schedd.JobRequest{Origin: origin, Tenant: tenantName, LengthHours: 1, SlackHours: 48}
	}

	// Consume r's one rate token and q's one quota slot. The queue bound
	// check runs before the tenant gate, so the queue is filled only
	// after the rate and quota phase — each rejection is then hit
	// deterministically by every combination.
	if _, err := single.Submit(ctx, tj("r", "R00")); err != nil {
		t.Fatal(err)
	}
	if _, err := single.Submit(ctx, tj("q", "R00")); err != nil {
		t.Fatal(err)
	}

	clients := []struct {
		name string
		c    *schedd.Client
	}{{"single", single}, {"failover", failover}}
	forEachCombo := func(phase string, check func(t *testing.T, submit func(context.Context, ...schedd.JobRequest) (schedd.SubmitResponse, error))) {
		for _, cl := range clients {
			for _, binary := range []bool{false, true} {
				proto := "json"
				submit := cl.c.Submit
				if binary {
					proto, submit = "binary", cl.c.SubmitBatch
				}
				t.Run(phase+"/"+cl.name+"/"+proto, func(t *testing.T) { check(t, submit) })
			}
		}
	}

	forEachCombo("gate", func(t *testing.T, submit func(context.Context, ...schedd.JobRequest) (schedd.SubmitResponse, error)) {
		_, err := submit(ctx, tj("r", "R00"))
		wantStatus(t, "rate", err, http.StatusTooManyRequests, "rate limited")
		if got := httpx.RetryAfterOf(err); got != 1000 {
			t.Fatalf("rate Retry-After = %d, want 1000", got)
		}
		_, err = submit(ctx, tj("q", "R00"))
		wantStatus(t, "quota", err, http.StatusTooManyRequests, "quota exceeded")
		if got := httpx.RetryAfterOf(err); got != 3600 {
			t.Fatalf("quota Retry-After = %d, want 3600", got)
		}
	})

	// The hints also ride the standard header for generic HTTP clients,
	// re-stamped by the gateway from the partition's in-body hint.
	resp, err := http.Post(gwts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"origin":"R00","tenant":"q","length_hours":1,"slack_hours":48}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") != "3600" {
		t.Fatalf("raw quota rejection through gateway: status %d, Retry-After %q, want 429 / 3600",
			resp.StatusCode, resp.Header.Get("Retry-After"))
	}

	// Now fill the queue to its bound of 4 (two jobs are already
	// outstanding) and pin capacity and oversize.
	if _, err := single.Submit(ctx, tj("cap", "R00"), tj("cap", "R00")); err != nil {
		t.Fatal(err)
	}
	forEachCombo("capacity", func(t *testing.T, submit func(context.Context, ...schedd.JobRequest) (schedd.SubmitResponse, error)) {
		_, err := submit(ctx, tj("cap", "R00"))
		wantStatus(t, "capacity", err, http.StatusServiceUnavailable, "queue full")
		if got := httpx.RetryAfterOf(err); got != 1 {
			t.Fatalf("capacity Retry-After = %d, want 1", got)
		}
		_, err = submit(ctx, schedd.JobRequest{Origin: strings.Repeat("x", httpx.MaxBody), LengthHours: 1})
		wantStatus(t, "oversize", err, http.StatusRequestEntityTooLarge, "exceeds")
		if got := httpx.RetryAfterOf(err); got != 0 {
			t.Fatalf("413 Retry-After = %d, want none", got)
		}
	})

	// A mis-typed request on the strict route is refused on its header
	// alone: an oversize body does not turn the partition's 415 into a
	// 413 behind the gateway. (The typed clients cannot mis-type a
	// request, so this row drives both handlers directly.)
	mistyped := func(h http.Handler) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodPost, schedd.BinaryWire.Route,
			strings.NewReader(strings.Repeat("x", httpx.MaxBody+1)))
		req.Header.Set("Content-Type", "application/json")
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, req)
		return rr
	}
	direct, through := mistyped(srv.Handler()), mistyped(gw.Handler())
	if direct.Code != http.StatusUnsupportedMediaType || through.Code != direct.Code {
		t.Fatalf("mis-typed oversize request: partition %d, gateway %d, want 415 from both", direct.Code, through.Code)
	}
	if direct.Body.String() != through.Body.String() {
		t.Fatalf("415 body differs: partition %q, gateway %q", direct.Body, through.Body)
	}
}

// TestFleetStatsMerge: GET /v1/stats on the gateway is the fleet-wide
// view — counters summed, clusters concatenated, tenants merged — plus
// the coverage block; losing a partition degrades it to a partial view
// rather than an error.
func TestFleetStatsMerge(t *testing.T) {
	_, gwts, _, tss, _ := twoPartitions(t, nil)
	client, err := schedd.NewClient(gwts.URL, gwts.Client())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := client.Submit(ctx, job("R00"), job("R00"), job("R00")); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Submit(ctx, job("R01"), job("R01")); err != nil {
		t.Fatal(err)
	}

	fetch := func() StatsResponse {
		t.Helper()
		resp, err := http.Get(gwts.URL + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("/v1/stats status %d", resp.StatusCode)
		}
		var out StatsResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return out
	}

	st := fetch()
	if st.Submitted != 5 {
		t.Fatalf("merged submitted = %d, want 5", st.Submitted)
	}
	if len(st.Clusters) != 2 {
		t.Fatalf("merged clusters = %+v, want both partitions'", st.Clusters)
	}
	if st.Gateway.Partitions != 2 || len(st.Gateway.Reached) != 2 || len(st.Gateway.Missing) != 0 {
		t.Fatalf("coverage block = %+v, want full coverage of 2", st.Gateway)
	}
	if st.Policy != "fifo" {
		t.Fatalf("merged policy = %q, want fifo", st.Policy)
	}

	// One partition down: still 200, explicitly partial.
	tss[1].Close()
	st = fetch()
	if st.Submitted != 3 {
		t.Fatalf("partial submitted = %d, want partition 0's 3", st.Submitted)
	}
	if len(st.Gateway.Missing) != 1 || st.Gateway.Missing[0] != 1 {
		t.Fatalf("coverage block = %+v, want missing=[1]", st.Gateway)
	}

	// Both down: now it is an error, shaped as retryable backpressure.
	tss[0].Close()
	resp, err := http.Get(gwts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") != "1" {
		t.Fatalf("all-down stats: status %d Retry-After %q, want 503 / 1", resp.StatusCode, resp.Header.Get("Retry-After"))
	}
}

// TestFleetMetricsMerge: GET /metrics on the gateway is one exposition
// — gateway_* families plus every partition's families folded together
// (counters summed, clock-like gauges maxed), each family declared
// exactly once.
func TestFleetMetricsMerge(t *testing.T) {
	_, gwts, _, _, clock := twoPartitions(t, nil)
	client, err := schedd.NewClient(gwts.URL, gwts.Client())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := client.Submit(ctx, job("R00"), job("R00"), job("R00")); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Submit(ctx, job("R01"), job("R01")); err != nil {
		t.Fatal(err)
	}
	clock.hour.Store(3)
	if _, err := client.Stats(ctx); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(gwts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	text := string(body)
	sc, err := metrics.ParseText(strings.NewReader(text))
	if err != nil {
		t.Fatalf("merged exposition does not parse: %v", err)
	}
	if v, ok := sc.Value("schedd_jobs_submitted_total"); !ok || v != 5 {
		t.Fatalf("summed schedd_jobs_submitted_total = %v, want 5", v)
	}
	if v, ok := sc.Value("schedd_fleet_hour"); !ok || v != 3 {
		t.Fatalf("maxed schedd_fleet_hour = %v, want 3", v)
	}
	if v, ok := sc.Value("gateway_partitions"); !ok || v != 2 {
		t.Fatalf("gateway_partitions = %v, want 2", v)
	}
	if sc.Sum("gateway_proxied_submits_total") != 2 {
		t.Fatalf("gateway_proxied_submits_total = %v, want 2", sc.Sum("gateway_proxied_submits_total"))
	}
	for _, family := range []string{"schedd_jobs_submitted_total", "http_requests_total", "gateway_partition_up"} {
		if n := strings.Count(text, "# TYPE "+family+" "); n != 1 {
			t.Fatalf("family %s declared %d times in the merge, want once", family, n)
		}
	}
}

// TestJobLookupRouting: GET /v1/jobs/{id} routes by the partitions'
// disjoint id ranges (learned from their stats echoes), falls back to
// fan-out, and answers 404 only after every partition has denied the id.
func TestJobLookupRouting(t *testing.T) {
	_, gwts, _, _, _ := twoPartitions(t, nil)
	client, err := schedd.NewClient(gwts.URL, gwts.Client())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	a, err := client.Submit(ctx, job("R00"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := client.Submit(ctx, job("R01"))
	if err != nil {
		t.Fatal(err)
	}
	if a.IDs[0] == b.IDs[0] {
		t.Fatalf("partitions assigned the same id %d: ranges not disjoint", a.IDs[0])
	}
	for _, want := range []struct {
		id     int
		origin string
	}{{a.IDs[0], "R00"}, {b.IDs[0], "R01"}} {
		got, err := client.Job(ctx, want.id)
		if err != nil {
			t.Fatal(err)
		}
		if got.ID != want.id || got.Origin != want.origin {
			t.Fatalf("job %d = %+v, want origin %s", want.id, got, want.origin)
		}
	}
	_, err = client.Job(ctx, 424242)
	wantStatus(t, "unknown id", err, http.StatusNotFound, "unknown job")
}

// TestJobLookupPartitionFailure: a lookup the owning partition fails
// with a 5xx is answered 502 with the partition's message — the job may
// well exist, so the gateway must not report it unknown.
func TestJobLookupPartitionFailure(t *testing.T) {
	_, _, srvs, tss, _ := twoPartitions(t, nil)
	real := srvs[1].Handler()
	broken := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/v1/jobs/") {
			httpx.WriteJSON(w, http.StatusInternalServerError, schedd.ErrorResponse{Error: "job store unreadable"})
			return
		}
		real.ServeHTTP(w, r)
	}))
	t.Cleanup(broken.Close)
	_, gwts := startGateway(t, [][]string{{tss[0].URL}, {broken.URL}})
	client, err := schedd.NewClient(gwts.URL, gwts.Client())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	ack, err := client.Submit(ctx, job("R01"))
	if err != nil {
		t.Fatal(err)
	}
	if id := ack.IDs[0]; id < 1_000_000 {
		t.Fatalf("job %d is not in partition 1's id range", id)
	}
	_, err = client.Job(ctx, ack.IDs[0])
	wantStatus(t, "owner fails the lookup", err, http.StatusBadGateway, "job store unreadable")
	// The healthy partition's jobs still resolve.
	ok, err := client.Submit(ctx, job("R00"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Job(ctx, ok.IDs[0]); err != nil {
		t.Fatalf("healthy partition's job %d: %v", ok.IDs[0], err)
	}
}

// TestSubmitAllPartitionsDown: with no partition reachable the gateway
// answers 503 with a Retry-After, never a hang or a 5xx surprise.
func TestSubmitAllPartitionsDown(t *testing.T) {
	_, gwts := startGateway(t, [][]string{{"http://127.0.0.1:9"}, {"http://127.0.0.1:9"}})
	client, err := schedd.NewClient(gwts.URL, gwts.Client())
	if err != nil {
		t.Fatal(err)
	}
	_, err = client.Submit(context.Background(), job("R00"))
	wantStatus(t, "all down", err, http.StatusServiceUnavailable, "no partition reachable")
	if got := httpx.RetryAfterOf(err); got != 1 {
		t.Fatalf("Retry-After = %d, want 1", got)
	}
}

// TestOnePartitionStatsParity: a gateway in front of one partition is a
// pass-through view, so every numeric field the two /v1/stats payloads
// share must be equal — including the derived ratios, on a workload
// that leaves jobs unresolved and finishes some late (where
// missed/submitted and missed/(completed+missed) differ).
func TestOnePartitionStatsParity(t *testing.T) {
	const horizon = 24 * 5
	set, cl, _ := mkWorld(t, horizon, 1, 2)
	clock := &hourClock{}
	srv, err := schedd.New(set, cl, schedd.Config{
		Policy: sched.FIFO{}, Horizon: horizon, Partitions: 1, PartitionID: 0,
	}, schedd.WithClock(clock.now))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	_, gwts := startGateway(t, [][]string{{ts.URL}})
	client, err := schedd.NewClient(gwts.URL, gwts.Client())
	if err != nil {
		t.Fatal(err)
	}
	// Six 4-hour jobs with no slack on two slots, then three that can
	// wait: by hour 9 one pair finished on time, one finished late, one
	// is running late, and the patient three are still queued.
	for i := 0; i < 9; i++ {
		slack := 0
		if i >= 6 {
			slack = 48
		}
		if _, err := client.Submit(context.Background(), schedd.JobRequest{Origin: "R00", LengthHours: 4, SlackHours: slack}); err != nil {
			t.Fatal(err)
		}
	}
	clock.hour.Store(9)

	fetch := func(url string) map[string]any {
		t.Helper()
		resp, err := http.Get(url + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return out
	}
	merged, direct := fetch(gwts.URL), fetch(ts.URL)
	num := func(field string) float64 { return direct[field].(float64) }
	if num("unresolved") == 0 || num("missed") == 0 || num("completed")+num("missed") == num("submitted") {
		t.Fatalf("weak fixture: %v — want unresolved jobs and late completions", direct)
	}
	shared := 0
	for field, v := range direct {
		want, numeric := v.(float64)
		if !numeric {
			continue
		}
		shared++
		if got, ok := merged[field].(float64); !ok || math.Abs(got-want) > 1e-12 {
			t.Errorf("%s: gateway %v, partition %v", field, merged[field], want)
		}
	}
	if shared < 12 {
		t.Fatalf("compared only %d numeric fields, want the whole stats block", shared)
	}
}

// TestEveryCallKindTracksPartitionHealth: partition health has one
// writer (Gateway.call), so each of the five ways the gateway reaches a
// partition must both notice it going away — gateway_partition_up 0,
// one gateway_partition_errors_total — and, once it is back, bring
// gateway_partition_up to 1 again on its own, with no other traffic.
func TestEveryCallKindTracksPartitionHealth(t *testing.T) {
	for _, tc := range []struct {
		kind string
		// call exercises the kind against partition 1; ok reports whether
		// the gateway answered the way a healthy fleet answers.
		call func(client *schedd.Client, gwURL string, id int) (ok bool)
	}{
		{"proxied submit", func(c *schedd.Client, _ string, _ int) bool {
			_, err := c.Submit(context.Background(), job("R01"))
			return err == nil
		}},
		{"split submit", func(c *schedd.Client, _ string, _ int) bool {
			_, err := c.SubmitBatch(context.Background(), job("R00"), job("R01"))
			return err == nil
		}},
		{"job lookup", func(c *schedd.Client, _ string, id int) bool {
			_, err := c.Job(context.Background(), id)
			return err == nil
		}},
		{"stats scatter", func(c *schedd.Client, gwURL string, _ int) bool {
			resp, err := http.Get(gwURL + "/v1/stats")
			if err != nil {
				return false
			}
			defer resp.Body.Close()
			var st StatsResponse
			return json.NewDecoder(resp.Body).Decode(&st) == nil && len(st.Gateway.Missing) == 0
		}},
		{"metrics scrape", func(c *schedd.Client, gwURL string, _ int) bool {
			resp, err := http.Get(gwURL + "/metrics")
			if err != nil {
				return false
			}
			defer resp.Body.Close()
			sc, err := metrics.ParseText(resp.Body)
			// The fixture's one job lives on partition 1: the merge counts
			// it only when that partition was scraped.
			return err == nil && sc.Sum("schedd_jobs_submitted_total") == 1
		}},
	} {
		t.Run(tc.kind, func(t *testing.T) {
			gw, gwts, srvs, tss, _ := twoPartitions(t, nil)
			client, err := schedd.NewClient(gwts.URL, gwts.Client())
			if err != nil {
				t.Fatal(err)
			}
			health := func() (up, errs float64) {
				t.Helper()
				var buf strings.Builder
				gw.Metrics().WriteTo(&buf)
				sc, err := metrics.ParseText(strings.NewReader(buf.String()))
				if err != nil {
					t.Fatal(err)
				}
				up, _ = sc.Value(`gateway_partition_up{partition="1"}`)
				errs, _ = sc.Value(`gateway_partition_errors_total{partition="1"}`)
				return up, errs
			}
			// Learn the topology and put a job on partition 1 while it is up.
			ack, err := client.Submit(context.Background(), job("R01"))
			if err != nil {
				t.Fatal(err)
			}
			if up, errs := health(); up != 1 || errs != 0 {
				t.Fatalf("healthy start: up=%v errors=%v, want 1 / 0", up, errs)
			}

			addr := tss[1].Listener.Addr().String()
			tss[1].Close()
			if tc.call(client, gwts.URL, ack.IDs[0]) {
				t.Fatal("call reported a healthy fleet with partition 1's listener closed")
			}
			if up, errs := health(); up != 0 || errs != 1 {
				t.Fatalf("listener closed: up=%v errors=%v, want 0 / 1", up, errs)
			}

			// The same partition comes back on the same address.
			l, err := net.Listen("tcp", addr)
			if err != nil {
				t.Fatalf("reopening partition 1's listener: %v", err)
			}
			back := httptest.NewUnstartedServer(srvs[1].Handler())
			back.Listener.Close()
			back.Listener = l
			back.Start()
			t.Cleanup(back.Close)
			if !tc.call(client, gwts.URL, ack.IDs[0]) {
				t.Fatal("call failed with partition 1 reopened")
			}
			if up, errs := health(); up != 1 || errs != 1 {
				t.Fatalf("listener reopened: up=%v errors=%v, want 1 / 1 — this call kind alone must refresh the gauge", up, errs)
			}
		})
	}
}
