package schedd

// The gateway table: each test that sends requests through the gateway
// to real partitions is a row — a world and its steps — that route
// drives through the partitioned fleet (sim_test.go) to its check, which
// holds each partition to invariants 1, 2 and 4. An acceptance travels
// by the gateway's client, a refusal also by a failover client and over
// both wires, a 207 by both clients.

import (
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"carbonshift/internal/httpx"
	"carbonshift/internal/sched"
)

// gwRow is the fleet a row drives, and how its requests travel.
type gwRow struct {
	*partitioned
	failover *Client // over the gateway's URL
	pin      *via    // the one via requests take, inside each
}

// via is one way to the gateway: a client over a wire.
type via struct {
	name   string
	client *Client
	wire   wireMode
}

type gwStep func(*gwRow)

// route boots w's partitioned fleet, takes the steps in order and
// checks the fleet, beside the other parallel tests.
func route(t *testing.T, w world, steps ...gwStep) {
	t.Helper()
	t.Parallel()
	r := &gwRow{partitioned: newPartitioned(t, w)}
	for _, c := range r.parts {
		c.offStream = true
	}
	var err error
	if r.failover, err = NewFailoverClient([]string{r.client.Endpoint()}, &http.Client{Transport: r.link}); err != nil {
		t.Fatal(err)
	}
	for i, s := range steps {
		r.setOp(fmt.Sprintf("step %d", i))
		s(r)
		r.remember()
	}
	r.check()
}

// vias is both clients over each of wires, or the via each pins.
func (r *gwRow) vias(wires ...wireMode) []via {
	if r.pin != nil {
		return []via{*r.pin}
	}
	var out []via
	for _, v := range []via{{"single", r.client, 0}, {"failover", r.failover, 0}} {
		for _, v.wire = range wires {
			out = append(out, v)
		}
	}
	return out
}

// credit counts an id the gateway acked, for the fleet and for the
// partition whose id range holds it, and requires its lookup through
// the gateway to find it, from origin.
func (r *gwRow) credit(id int, origin string) {
	r.acked[id]++
	r.parts[id/idStride].acked[id]++
	if job, err := r.client.Job(r.t.Context(), id); err != nil || job.ID != id || job.Origin != origin {
		r.fatalf("job %d through the gateway: %+v, %v; want origin %s", id, job, err, origin)
	}
}

// gsend sends jobs through the gateway: by the gateway's client over the
// world's wire when want is an acceptance, by every via when it is a
// refusal, and holds each answer to want (verdict).
func gsend(want answer, jobs ...JobRequest) gwStep {
	return func(r *gwRow) {
		vias := []via{{"single", r.client, r.w.wire}}
		if want.status != 0 || r.pin != nil {
			vias = r.vias(wireJSON, wireBinary)
		}
		for _, v := range vias {
			ack, err := v.wire.submit(v.client, 0)(r.t.Context(), jobs...)
			if s := verdict(&ack, err, want, r.hour); s != "" {
				r.fatalf("submit over %v by the %s client: %s", v.wire, v.name, s)
			}
			for k, id := range ack.IDs {
				r.credit(id, jobs[k].Origin)
			}
		}
	}
}

// outcome is one job's line of a 207: the partition that answered, and
// how.
type outcome struct {
	partition int
	want      answer
}

// split sends jobs that some partitions accept and others refuse, by
// both clients over the world's wire, and requires a 207 whose line k
// is want[k]. An accepted job is credited: a retry of the refused ones
// cannot double it.
func split(want []outcome, jobs ...JobRequest) gwStep {
	return func(r *gwRow) {
		for _, v := range r.vias(r.w.wire) {
			_, err := v.wire.submit(v.client, 0)(r.t.Context(), jobs...)
			var pe *PartialError
			if !errors.As(err, &pe) || len(pe.Resp.Outcomes) != len(want) {
				r.fatalf("%s client: %v, want a 207 of %d outcomes", v.name, err, len(want))
			}
			after := 0
			for k, o := range pe.Resp.Outcomes {
				if w := want[k]; o.Partition != w.partition || o.Status != cmp.Or(w.want.status, http.StatusOK) ||
					!strings.Contains(o.Error, w.want.msg) || o.RetryAfter != w.want.after {
					r.fatalf("%s client: outcome %d = %+v, want %+v from partition %d", v.name, k, o, w.want, w.partition)
				}
				if after = max(after, o.RetryAfter); o.Status == http.StatusOK {
					r.credit(o.ID, jobs[k].Origin)
				}
			}
			if pe.Resp.Accepted != len(pe.AckedIDs()) || pe.MaxRetryAfter() != after {
				r.fatalf("%s client: 207 %+v: accepted or MaxRetryAfter %d miscounted", v.name, pe.Resp, pe.MaxRetryAfter())
			}
			r.remember()
		}
	}
}

// each takes steps once by each via — both clients over both wires — as
// subtest name/<client>/<wire> of the row, with the via pinned.
func each(name string, steps ...gwStep) gwStep {
	return func(r *gwRow) {
		parent := r.t
		for _, v := range r.vias(wireJSON, wireBinary) {
			if !parent.Run(fmt.Sprintf("%s/%s/%v", name, v.name, v.wire), func(t *testing.T) {
				r.t, r.pin = t, &v
				defer func() { r.t, r.pin = parent, nil }()
				for _, s := range steps {
					s(r)
				}
			}) {
				parent.FailNow()
			}
		}
	}
}

// graw sends a hand-built request to the gateway and holds the answer,
// its Retry-After header among it, to want.
func graw(rq raw, want answer) gwStep {
	return func(r *gwRow) {
		ack, err := rq.send(r.t, r.client, want)
		if s := verdict(ack, err, want, r.hour); s != "" {
			r.fatalf("%s %s: %s", rq.method, rq.path, s)
		}
	}
}

func ghour(h int) gwStep            { return func(r *gwRow) { r.at(h) } }
func gdown(p int) gwStep            { return func(r *gwRow) { r.down(p) } }
func gact(do func(r *gwRow)) gwStep { return do }
func djob(length, slack int) JobRequest {
	j := cjob(length, slack)
	j.Origin = "DIRTY"
	return j
}

// TestPartialFailureOutcomes: a mixed batch whose sub-batches one
// partition admits and another refuses is a 207 with per-job outcomes —
// each acked id reported once, on its own job's line, the rejections
// with their partition, status and Retry-After — on both wires.
func TestPartialFailureOutcomes(t *testing.T) {
	full := refused(503, "queue full", 1)
	c, d := cjob(1, 24), djob(1, 24)
	for _, m := range []wireMode{wireJSON, wireBinary} {
		t.Run(m.String(), func(t *testing.T) {
			// A partition holds four outstanding jobs: partition 0 admits its
			// sub-batch from both clients, partition 1 refuses its five-job
			// one. An hour later partition 0's jobs are done, and it admits
			// two jobs interleaved with partition 1's refused ones.
			route(t, world{policy: sched.FIFO{}, slots: 4, wire: m, cfg: Config{MaxQueue: 4}},
				split([]outcome{{0, ok}, {1, full}, {1, full}, {1, full}, {1, full}, {1, full}}, c, d, d, d, d, d),
				ghour(1),
				split([]outcome{{1, full}, {0, ok}, {1, full}, {1, full}, {0, ok}, {1, full}, {1, full}}, d, c, d, d, c, d, d))
		})
	}
}

// TestUniformSplitFailureCollapses: when every sub-batch fails with the
// same status, the gateway answers that status, with the largest
// Retry-After, not a 207: a batch refused whole reads like a
// one-partition refusal.
func TestUniformSplitFailureCollapses(t *testing.T) {
	route(t, world{policy: sched.FIFO{}, slots: 4, cfg: Config{MaxQueue: 1}},
		gsend(refused(503, "queue full", 1), cjob(1, 24), cjob(1, 24), djob(1, 24), djob(1, 24)))
}

// TestPartialFailurePartitionDown: a partition down — both its nodes
// killed — yields synthetic 503 outcomes for its jobs, while the live
// partition's acks count exactly once, and the gateway's health series
// show it: two submits and the scrape failed on partition 1.
func TestPartialFailurePartitionDown(t *testing.T) {
	route(t, world{policy: sched.FIFO{}, slots: 4},
		graw(raw{method: http.MethodGet, path: "/v1/stats"}, ok), // learn the topology with both up
		gdown(1),
		split([]outcome{{0, ok}, {1, refused(503, "unreachable", 1)}}, cjob(1, 24), djob(1, 24)),
		gact(func(r *gwRow) {
			m := scrape(r.t, r.client)
			up0, up1 := m(`gateway_partition_up{partition="0"}`), m(`gateway_partition_up{partition="1"}`)
			if errs := m(`gateway_partition_errors_total{partition="1"}`); up0 != 1 || up1 != 0 || errs != 3 {
				r.fatalf("partition up %v and %v, partition 1's errors %v; want 1, 0 and 3", up0, up1, errs)
			}
		}))
}

// TestBackpressureTaxonomyThroughGateway: 429 quota, 429 rate, 503
// capacity and 413 oversize pass through the gateway as the partition
// answered — status, message and Retry-After — on both wires, by both
// clients. The queue bound is checked before the tenant gate, so the
// queue fills only after the gate phase.
func TestBackpressureTaxonomyThroughGateway(t *testing.T) {
	quota := []byte(`{"origin":"CLEAN","tenant":"q","length_hours":1,"slack_hours":48}`)
	huge := JobRequest{Origin: strings.Repeat("x", httpx.MaxBody), LengthHours: 1}
	route(t, world{policy: sched.FIFO{}, slots: 1, partitions: 1, cfg: Config{MaxQueue: 4, Tenants: quotaRate(t)}},
		gsend(ok, tjob("r")), gsend(ok, tjob("q")),
		each("gate",
			gsend(refused(429, "rate limited", 1000), tjob("r")),
			gsend(refused(429, "quota exceeded", 3600), tjob("q"))),
		// The gateway re-stamps the Retry-After header from the in-body
		// hint, for generic HTTP clients.
		graw(raw{http.MethodPost, JSONWire.Route, JSONWire.ContentType, quota}, refused(429, "quota exceeded", 3600)),
		gsend(ok, tjob("cap"), tjob("cap")),
		each("capacity",
			gsend(refused(503, "queue full", 1), tjob("cap")),
			gsend(refused(413, "exceeds", 0), huge)),
		// A mis-typed request on the strict route is refused on its header
		// alone: an oversize body does not turn the partition's 415 into a
		// 413 behind the gateway.
		// Served in process: over a socket the server's early answer races
		// the client still writing the body.
		gact(func(r *gwRow) {
			var answers []*httptest.ResponseRecorder
			for _, ts := range []*httptest.Server{r.parts[0].primary.ts, r.gw} {
				req := httptest.NewRequest(http.MethodPost, BinaryWire.Route, bytes.NewReader(bytes.Repeat([]byte("x"), httpx.MaxBody+1)))
				req.Header.Set("Content-Type", "application/json")
				answers = append(answers, httptest.NewRecorder())
				ts.Config.Handler.ServeHTTP(answers[len(answers)-1], req)
			}
			p, g := answers[0], answers[1]
			if p.Code != http.StatusUnsupportedMediaType || g.Code != p.Code || g.Body.String() != p.Body.String() {
				r.fatalf("mis-typed oversize request: partition %d %q, gateway %d %q; want the same 415", p.Code, p.Body, g.Code, g.Body)
			}
		}))
}

// TestFleetStatsMerge: the gateway's /v1/stats is the fleet's — counters
// summed, clusters concatenated — with its coverage; one partition down
// makes it partial, both down a retryable 503.
func TestFleetStatsMerge(t *testing.T) {
	route(t, world{policy: sched.FIFO{}, slots: 4},
		gsend(ok, cjob(1, 24), cjob(1, 24), cjob(1, 24)),
		gsend(ok, djob(1, 24), djob(1, 24)),
		gact(func(r *gwRow) {
			if st := r.stats(); st.Submitted != 5 || len(st.Clusters) != 2 || st.Policy != "fifo" ||
				st.Gateway.Partitions != 2 || len(st.Gateway.Reached) != 2 || len(st.Gateway.Missing) != 0 {
				r.fatalf("merged stats %+v, want 5 submitted over both partitions", st)
			}
		}),
		gdown(1),
		gact(func(r *gwRow) {
			if st := r.stats(); st.Submitted != 3 || !slices.Equal(st.Gateway.Missing, []int{1}) {
				r.fatalf("merged stats %+v, want partition 0's 3 submitted, partition 1 missing", st)
			}
		}),
		gdown(0),
		graw(raw{method: http.MethodGet, path: "/v1/stats"}, refused(503, "no partition reachable", 1)))
}

// TestFleetMetricsMerge: the gateway's /metrics is one exposition — its
// own families and every partition's folded together, each declared
// once: counters summed, clock-like gauges maxed, and the two ratios the
// fleet's, as /v1/stats computes them. Partition 0 owns two regions and
// misses a deadline, partition 1 owns one and misses none, so neither a
// maximum nor a plain mean gives the fleet's ratios.
func TestFleetMetricsMerge(t *testing.T) {
	route(t, world{policy: sched.FIFO{}, slots: 1, regions: 3},
		gsend(ok, cjob(4, 0), cjob(4, 0), cjob(1, 24)),
		gsend(ok, djob(1, 24), djob(1, 24)),
		ghour(6),
		gact(func(r *gwRow) {
			st := r.stats()
			if st.Missed == 0 || st.MissRate == r.parts[0].primary.srv.stats().MissRate {
				r.fatalf("weak fixture: stats %+v — want partition 0 alone to miss", st.StatsResponse)
			}
			metric := scrape(r.t, r.client)
			for s, want := range map[string]float64{
				"schedd_jobs_submitted_total":   5,
				"schedd_fleet_hour":             6,
				"gateway_partitions":            2,
				"gateway_proxied_submits_total": 2,
				"schedd_miss_rate":              st.MissRate,
				"schedd_utilization_ratio":      st.Utilization,
			} {
				if got := metric(s); math.Abs(got-want) > 1e-12 {
					r.fatalf("merged %s = %v, want %v", s, got, want)
				}
			}
			_, body, _ := roundTrip(r.t, r.client, http.MethodGet, "/metrics", "", nil)
			for _, family := range []string{"schedd_jobs_submitted_total", "http_requests_total", "gateway_partition_up"} {
				if n := bytes.Count(body, []byte("# TYPE "+family+" ")); n != 1 {
					r.fatalf("family %s declared %d times in the merge, want once", family, n)
				}
			}
		}))
}

// TestJobLookupRouting: a job lookup routes by the partitions' disjoint
// id ranges, learned from their stats echoes — every acked id is looked
// up — falls back to asking every partition, and answers 404 only once
// every partition denied the id.
func TestJobLookupRouting(t *testing.T) {
	route(t, world{policy: sched.FIFO{}, slots: 4},
		gsend(acked(0), cjob(1, 24)),
		gsend(acked(idStride), djob(1, 24)),
		graw(raw{method: http.MethodGet, path: "/v1/jobs/424242"}, refused(404, "unknown job", 0)))
}

// TestOnePartitionStatsParity: a gateway in front of one partition is a
// pass-through view, so every numeric field the two /v1/stats share is
// equal — the derived ratios too, on a workload that leaves jobs
// unresolved and finishes some late, where missed/submitted and
// missed/(completed+missed) differ.
func TestOnePartitionStatsParity(t *testing.T) {
	// Six 4-hour jobs with no slack on two slots, then three that can
	// wait: by hour 9 one pair finished on time, one finished late, one
	// is running late, and the patient three are still queued.
	var steps []gwStep
	for i := range 9 {
		steps = append(steps, gsend(ok, cjob(4, []int{0, 48}[i/6])))
	}
	route(t, world{policy: sched.FIFO{}, slots: 2, partitions: 1}, append(steps, ghour(9), gact(func(r *gwRow) {
		var merged, direct map[string]any
		for client, out := range map[*Client]*map[string]any{r.client: &merged, r.parts[0].primary.client: &direct} {
			if _, body, err := roundTrip(r.t, client, http.MethodGet, "/v1/stats", "", nil); err != nil || json.Unmarshal(body, out) != nil {
				r.fatalf("%s/v1/stats: %v %s", client.Endpoint(), err, body)
			}
		}
		num := func(field string) float64 { return direct[field].(float64) }
		if num("unresolved") == 0 || num("missed") == 0 || num("completed")+num("missed") == num("submitted") {
			r.fatalf("weak fixture: %v — want unresolved jobs and late completions", direct)
		}
		shared := 0
		for field, v := range direct {
			if want, numeric := v.(float64); numeric {
				shared++
				if got, ok := merged[field].(float64); !ok || math.Abs(got-want) > 1e-12 {
					r.fatalf("%s: gateway %v, partition %v", field, merged[field], want)
				}
			}
		}
		if shared < 12 {
			r.fatalf("compared only %d numeric fields, want the whole stats block", shared)
		}
	}))...)
}

// TestTenantRowKeys: every row of the /v1/stats tenants block carries
// its keys in the wire's order, at a partition and through the gateway,
// whose merge both sums a row (spot, in both partitions) and appends
// one (web, in partition 0 only). The other tests decode through the
// struct that encodes, so only the raw bytes show a wrong or moved tag.
func TestTenantRowKeys(t *testing.T) {
	want := []string{"name", "class", "weight", "submitted", "completed", "missed",
		"running", "queue_depth", "unresolved", "slot_hours", "emissions_g"}
	web, spot, dirtySpot := cjob(2, 24), cjob(1, 24), djob(1, 24)
	web.Tenant, spot.Tenant, dirtySpot.Tenant = "web", "spot", "spot"
	route(t, world{policy: sched.FIFO{}, slots: 4, tenants: true},
		gsend(ok, web, spot, dirtySpot), ghour(1), gact(func(r *gwRow) {
			for _, client := range []*Client{r.parts[0].primary.client, r.client} {
				_, body, err := roundTrip(r.t, client, http.MethodGet, "/v1/stats", "", nil)
				var st struct {
					Tenants []json.RawMessage `json:"tenants"`
				}
				if err != nil || json.Unmarshal(body, &st) != nil || len(st.Tenants) == 0 {
					r.fatalf("%s/v1/stats: %v %s", client.Endpoint(), err, body)
				}
				for _, row := range st.Tenants {
					dec := json.NewDecoder(bytes.NewReader(row))
					var keys []string
					if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
						r.fatalf("%s: tenant row %s is not an object", client.Endpoint(), row)
					}
					for dec.More() {
						key, _ := dec.Token()
						var value json.RawMessage
						if s, ok := key.(string); !ok || dec.Decode(&value) != nil {
							r.fatalf("%s: tenant row %s does not parse", client.Endpoint(), row)
						} else {
							keys = append(keys, s)
						}
					}
					if !slices.Equal(keys, want) {
						r.fatalf("%s: tenant row keys %q, want %q", client.Endpoint(), keys, want)
					}
				}
			}
		}))
}
