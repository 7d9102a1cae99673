package schedd

// The admission table: every test that only sends requests and checks
// the answers is one row — a world and its steps — that admit drives
// through a cluster (sim_test.go) and ends in its check. A step is an
// hour, an op, a request or one built by hand, and the answer it
// expects: the status, a fragment of the error, the Retry-After hint
// (a hand-built request's header and retry_after field alike) and, when
// given, the acked ids. A rejection admits nothing, so a step that
// expects one is sent over both wires, through the primary's client and
// through a failover client. Accepted requests travel the world's wire.
// Invariants 1, 2 and 4 hold for every row; the rows send requests of
// their own, not the world's stream, so invariant 3 has no reference.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"carbonshift/internal/httpx"
	"carbonshift/internal/sched"
	"carbonshift/internal/tenant"
)

// step is one step of a row: do, or else a hand-built request, or else
// a request of jobs.
type step struct {
	do   func(*cluster)
	raw  *raw
	jobs []JobRequest
	want answer
}

// raw is a request the typed clients would not send.
type raw struct {
	method, path, contentType string
	body                      []byte
}

// answer is what a step expects back.
type answer struct {
	status int    // 0 for 200
	msg    string // a fragment of the error
	after  int    // the Retry-After hint in seconds, 0 for none
	ids    []int  // the acked ids, when set
}

var ok answer

func acked(ids ...int) answer { return answer{ids: ids} }
func refused(status int, msg string, after int) answer {
	return answer{status: status, msg: msg, after: after}
}

func hour(h int) step                           { return step{do: func(c *cluster) { c.at(h) }} }
func act(do func(*cluster)) step                { return step{do: do} }
func send(want answer, jobs ...JobRequest) step { return step{jobs: jobs, want: want} }
func get(path string, want answer) step {
	return step{raw: &raw{method: http.MethodGet, path: path}, want: want}
}
func post(wire *Wire, body []byte, want answer) step {
	return step{raw: &raw{method: http.MethodPost, path: wire.Route, contentType: wire.ContentType, body: body}, want: want}
}

// series scrapes the primary's /metrics and requires each series' value.
func series(want map[string]float64) step {
	return act(func(c *cluster) {
		metric := scrape(c.t, c.primary.client)
		for s, v := range want {
			if got := metric(s); got != v {
				c.fatalf("%s = %v, want %v", s, got, v)
			}
		}
	})
}

// lookup sets the clock to h, to which the lookup's request steps the
// fleet, and requires job id's status to pass want.
func lookup(h, id int, want func(JobResponse) bool) step {
	return act(func(c *cluster) {
		c.hour = h
		c.clock.hour.Store(int64(h))
		if job, err := c.primary.client.Job(c.ctx, id); err != nil || !want(job) {
			c.fatalf("hour %d: job %d: %+v, %v", h, id, job, err)
		}
	})
}

// cjob is a CLEAN job; pin gives j the id.
func cjob(length, slack int) JobRequest {
	return JobRequest{Origin: "CLEAN", LengthHours: length, SlackHours: slack}
}
func pin(id int, j JobRequest) JobRequest {
	j.ID = &id
	return j
}

// admit boots w's primary, takes the steps in order and checks the run.
func admit(t *testing.T, w world, steps ...step) {
	t.Helper()
	c := newCluster(t, w)
	c.offStream = true
	for i, s := range steps {
		c.op = fmt.Sprintf("step %d", i)
		switch {
		case s.do != nil:
			s.do(c)
		case s.raw != nil:
			ack, err := s.raw.send(c.t, c.primary.ts.URL, s.want)
			c.expect(s.raw.method+" "+s.raw.path, ack, err, s.want)
		case s.want.status == 0:
			ack, err := c.w.wire.submit(c.primary.client, c.chunks)(c.ctx, s.jobs...)
			c.chunks++
			c.expect("submit", &ack, err, s.want)
		default:
			failover, err := NewFailoverClient([]string{c.primary.ts.URL}, nil)
			if err != nil {
				t.Fatal(err)
			}
			for k, client := range []*Client{c.primary.client, failover} {
				for _, m := range []wireMode{wireJSON, wireBinary} {
					_, err := m.submit(client, 0)(c.ctx, s.jobs...)
					c.expect(fmt.Sprintf("submit over %v by the %s client", m, []string{"node's", "failover"}[k]), nil, err, s.want)
				}
			}
		}
		c.remember()
	}
	c.op = "check"
	c.check()
}

// send sends r to base and requires the Retry-After header want
// implies. It returns the ack a 200 to a submit carries (nil for a
// read) and the error any other status comes back as.
func (r raw) send(t testing.TB, base string, want answer) (*SubmitResponse, error) {
	t.Helper()
	h, body, err := roundTrip(t, r.method, base+r.path, r.contentType, r.body)
	hint := ""
	if want.after > 0 {
		hint = strconv.Itoa(want.after)
	}
	if got := h.Get("Retry-After"); got != hint {
		t.Fatalf("%s %s: Retry-After header %q, want %q", r.method, r.path, got, hint)
	}
	if err != nil || r.method != http.MethodPost {
		return nil, err
	}
	wire := JSONWire
	if r.path == BinaryWire.Route {
		wire = BinaryWire
	}
	ack, err := wire.DecodeAck(body)
	if err != nil {
		t.Fatalf("%s: %v", r.path, err)
	}
	return &ack, nil
}

// expect holds one answer to want (verdict) and credits its acked ids.
func (c *cluster) expect(what string, ack *SubmitResponse, err error, want answer) {
	c.t.Helper()
	if v := verdict(ack, err, want, c.hour); v != "" {
		c.fatalf("%s: %s", what, v)
	}
	if ack != nil && want.status == 0 {
		for _, id := range ack.IDs {
			c.acked[id]++
		}
	}
}

// verdict is how an answer fails want, or "" when it does not: a
// refusal must carry want's status, message and hint; an acceptance's
// ack (nil for a read) must be of hour and hold want's ids, when set.
func verdict(ack *SubmitResponse, err error, want answer, hour int) string {
	switch code := httpx.StatusCodeOf(err); {
	case want.status == 0 && err != nil:
		return err.Error()
	case want.status == 0:
		if ack != nil && (ack.ArrivalHour != hour || ack.Accepted != len(ack.IDs) || want.ids != nil && !slices.Equal(ack.IDs, want.ids)) {
			return fmt.Sprintf("ack %+v, want arrival hour %d and ids %v", *ack, hour, want.ids)
		}
	case code != want.status:
		return fmt.Sprintf("status %d (%v), want %d", code, err, want.status)
	case !strings.Contains(err.Error(), want.msg):
		return fmt.Sprintf("error %q does not mention %q", err, want.msg)
	case httpx.RetryAfterOf(err) != want.after:
		return fmt.Sprintf("Retry-After %d, want %d", httpx.RetryAfterOf(err), want.after)
	}
	return ""
}

// wantRefused requires err to be the refusal want — the typed-client
// contract load generators branch on.
func wantRefused(t testing.TB, label string, err error, want answer) {
	t.Helper()
	if v := verdict(nil, err, want, 0); v != "" {
		t.Fatalf("%s: %s", label, v)
	}
}

// oneJSON is one CLEAN job as a JSON request body.
var oneJSON = []byte(`{"origin":"CLEAN","length_hours":1}`)

func TestSubmitValidation(t *testing.T) {
	admit(t, world{policy: sched.FIFO{}, slots: 1},
		send(refused(400, "no cluster", 0), JobRequest{Origin: "NOPE", LengthHours: 1}),
		send(refused(400, "length 0", 0), cjob(0, 0)),
		send(acked(7), pin(7, cjob(1, 0))),
		send(refused(400, "duplicate job id", 0), pin(7, cjob(1, 0))))
}

// TestAutoIDSkipsExplicitIDs: a client that pins low ids (as loadgen
// does) must not wedge later auto-assigned submissions, and an explicit
// id later in the same batch is reserved too: the auto id must not take
// it. The mixed wire alternates the routes.
func TestAutoIDSkipsExplicitIDs(t *testing.T) {
	admit(t, world{policy: sched.FIFO{}, slots: 8, wire: wireMixed},
		send(acked(0, 2), pin(0, cjob(1, 0)), pin(2, cjob(1, 0))),
		send(acked(1, 3), cjob(1, 0), cjob(1, 0)),
		send(acked(5, 4), cjob(1, 0), pin(4, cjob(1, 0))),
		send(acked(7, 6), cjob(1, 0), pin(6, cjob(1, 0))))
}

func TestBadRequests(t *testing.T) {
	admit(t, world{policy: sched.FIFO{}, slots: 1},
		post(JSONWire, []byte("{not json"), refused(400, "bad request body", 0)),
		get("/v1/jobs/abc", refused(400, "", 0)),
		get("/v1/jobs/999", refused(404, "", 0)))
}

func TestQueueBackpressure(t *testing.T) {
	admit(t, world{policy: sched.FIFO{}, slots: 1, cfg: Config{MaxQueue: 2}},
		send(ok, cjob(2, 48), cjob(2, 48)),
		send(refused(503, "queue full", 1), cjob(2, 48)))
}

// TestJobStoreBound: the store keeps every resolved job, so once it is
// full a submission is a 503 at every later hour too — and one that
// carries no retry hint, header or body, since no retry can succeed.
func TestJobStoreBound(t *testing.T) {
	full := refused(503, "job store full", 0)
	admit(t, world{policy: sched.FIFO{}, slots: 4, cfg: Config{MaxJobs: 2}},
		send(ok, cjob(1, 0), cjob(1, 0)),
		hour(5), send(full, cjob(1, 0)), post(JSONWire, oneJSON, full),
		hour(50), send(full, cjob(1, 0)))
}

// TestHorizonExhausted: past the horizon every submission is a 503, and
// one that carries no retry hint, header or body, since no retry can
// succeed.
func TestHorizonExhausted(t *testing.T) {
	gone := refused(503, "horizon exhausted", 0)
	admit(t, world{policy: sched.FIFO{}, slots: 1},
		hour(simHorizon), send(gone, cjob(1, 0)), post(JSONWire, oneJSON, gone))
}

// TestDecodeSubmitRejectsEmptyBatch is the regression test for the
// empty-batch bug: {"jobs":[]} used to fall through to a single
// zero-valued JobRequest and admit a garbage job; it must be a 400.
func TestDecodeSubmitRejectsEmptyBatch(t *testing.T) {
	admit(t, world{policy: sched.FIFO{}, slots: 4},
		post(JSONWire, []byte(`{"jobs":[]}`), refused(400, "empty job batch", 0)))
}

// TestDecodeSubmitRejectsTrailingGarbage is the regression test for
// the trailing-data bug: json.Decoder stops at the first value, so a
// valid job followed by garbage (or a second value) used to be
// accepted wholesale. Trailing whitespace stays fine.
func TestDecodeSubmitRejectsTrailingGarbage(t *testing.T) {
	var steps []step
	for _, tail := range []string{`garbage`, `{"origin":"DIRTY"}`, `[1,2]`, `0`, `x`} {
		steps = append(steps, post(JSONWire, append(slices.Clip(oneJSON), " "+tail...), refused(400, "trailing data", 0)))
	}
	admit(t, world{policy: sched.FIFO{}, slots: 4},
		append(steps, post(JSONWire, append(slices.Clip(oneJSON), " \n\t "...), ok))...)
}

// TestSubmitOversizeBody413 is the regression test for the oversize
// mapping: a body past httpx.MaxBody used to surface as a generic 400
// out of the JSON decode error; it must be a 413 with a
// schedd_backpressure_total{reason="oversize"} count, on both routes.
// A frame that declares a payload past the limit is refused by the
// frame check before the body limit is reached: a 400.
func TestSubmitOversizeBody413(t *testing.T) {
	huge := bytes.Repeat([]byte{'a'}, httpx.MaxBody+2)
	copy(huge, `{"origin":"`)
	frame := bytes.Clone(huge)
	copy(frame, binReqMagic)
	frame[4] = binVersion
	binary.BigEndian.PutUint32(frame[5:9], uint32(len(frame)))
	// A declared payload under the limit whose header and payload
	// together overrun it hits the body limit mid-read.
	overrun := make([]byte, binHeaderLen+httpx.MaxBody-4)
	copy(overrun, binReqMagic)
	overrun[4] = binVersion
	binary.BigEndian.PutUint32(overrun[5:9], httpx.MaxBody-4)
	admit(t, world{policy: sched.FIFO{}, slots: 4},
		post(JSONWire, huge, refused(413, "exceeds", 0)),
		post(BinaryWire, frame, refused(400, "oversize record", 0)),
		post(BinaryWire, overrun, refused(413, "exceeds", 0)),
		series(map[string]float64{`schedd_backpressure_total{reason="oversize"}`: 2}))
}

// TestBinarySubmitRejections covers the protocol-level 400s: empty
// batch, bad magic, bad version, CRC mismatch, trailing bytes, a lying
// length prefix, and the content-type gate.
func TestBinarySubmitRejections(t *testing.T) {
	valid := AppendBinarySubmit(nil, []JobRequest{cjob(1, 0)})
	bad := func(msg string, edit func(b []byte)) step {
		b := bytes.Clone(valid)
		edit(b)
		return post(BinaryWire, b, refused(400, msg, 0))
	}
	empty := appendBinaryFrame(nil, binReqMagic, binVersion, func(buf []byte) []byte { return binary.AppendUvarint(buf, 0) })
	admit(t, world{policy: sched.FIFO{}, slots: 4},
		post(BinaryWire, empty, refused(400, "empty", 0)),
		bad("bad magic", func(b []byte) { copy(b, "XXXX") }),
		bad("unsupported version", func(b []byte) { b[4] = 99 }),
		bad("checksum", func(b []byte) { b[len(b)-1] ^= 0xff }),
		bad("oversize record", func(b []byte) { binary.BigEndian.PutUint32(b[5:9], httpx.MaxBody+1) }),
		post(BinaryWire, append(bytes.Clone(valid), 0), refused(400, "trailing data", 0)),
		post(BinaryWire, valid[:len(valid)-2], refused(400, "short input", 0)),
		step{raw: &raw{method: http.MethodPost, path: BinaryWire.Route, contentType: "application/json", body: valid}, want: refused(415, "", 0)},
		post(BinaryWire, valid, ok))
}

// TestSubmitHourBound400: a slack that would carry the deadline past
// sched's hour bound (it used to wrap the deadline negative) is a 400 on
// both protocols, admits nothing, and leaves the server serving.
func TestSubmitHourBound400(t *testing.T) {
	admit(t, world{policy: sched.FIFO{}, slots: 4},
		send(refused(400, "deadline past", 0), cjob(1, math.MaxInt)),
		send(ok, cjob(1, math.MaxInt32-1)))
}

// TestBinarySubmitFollowerRedirect: the binary route honors the 421
// write-redirect contract like the JSON route.
func TestBinarySubmitFollowerRedirect(t *testing.T) {
	frame := AppendBinarySubmit(nil, []JobRequest{cjob(1, 0)})
	admit(t, world{policy: sched.FIFO{}, slots: 2},
		act(func(c *cluster) {
			f, want := c.startFollower(FollowerConfig{}, true), refused(421, "primary", 0)
			ack, err := raw{http.MethodPost, BinaryWire.Route, BinaryContentType, frame}.send(c.t, f.ts.URL, want)
			c.expect("a binary submit to the follower", ack, err, want)
		}))
}

// TestTenantAdmissionQuota: the per-hour quota rejects the fourth job
// with 429, leaves other tenants untouched, rejects a mixed batch
// atomically, and opens a fresh window when the fleet hour moves.
func TestTenantAdmissionQuota(t *testing.T) {
	quota := refused(429, "quota exceeded", 3600)
	admit(t, world{policy: sched.FIFO{}, slots: 4, tenants: true},
		send(ok, tjob("quotal")), send(ok, tjob("quotal")), send(ok, tjob("quotal")),
		send(quota, tjob("quotal")),
		send(ok, tjob("web")),
		send(quota, tjob("web"), tjob("quotal")),
		hour(1), send(ok, tjob("quotal")),
		act(func(c *cluster) {
			stats, err := c.primary.client.Stats(c.ctx)
			if err != nil {
				t.Fatal(err)
			}
			if e := tenantEntry(t, stats, "quotal"); e.Submitted != 4 || e.Class != tenant.Batch || e.Weight != 1 {
				t.Fatalf("quotal entry = %+v", e)
			}
			if e := tenantEntry(t, stats, "web"); e.Submitted != 1 || e.Class != tenant.Interactive || e.Weight != 2 {
				t.Fatalf("web entry = %+v", e)
			}
			// The config echo carries the normalized registry (the
			// follower's cmd/schedd rebuilds its tenant world from exactly
			// this).
			if _, err := tenant.NewConfig(stats.TenantConfig); err != nil {
				t.Fatalf("stats tenant_config does not round-trip: %v", err)
			}
			i := slices.IndexFunc(stats.TenantConfig, func(s tenant.Spec) bool { return s.Name == "quotal" })
			if i < 0 || stats.TenantConfig[i].Class != tenant.Batch || stats.TenantConfig[i].Weight != 1 || stats.TenantConfig[i].QuotaJobsPerHour != 3 {
				t.Fatalf("echoed tenant config %+v: want quotal batch, weight 1, quota 3", stats.TenantConfig)
			}
		}))
}

// TestTenantRateLimit: the token bucket rejects past the burst with 429
// and refills on the gate clock — which is independent of the replay
// clock, so the fleet hour never moves here.
func TestTenantRateLimit(t *testing.T) {
	rate := refused(429, "rate limited", 1)
	admit(t, world{policy: sched.FIFO{}, slots: 4, tenants: true},
		send(ok, tjob("ratey")), send(ok, tjob("ratey")), // burst 2
		send(rate, tjob("ratey")),
		send(ok, tjob("web")),
		// 1.5 seconds at 1 token/s refills past one token.
		act(func(c *cluster) { c.wall.advance(1500 * time.Millisecond) }),
		send(ok, tjob("ratey")),
		send(rate, tjob("ratey")),
		series(map[string]float64{
			`schedd_tenant_rejected_total{tenant="ratey",reason="rate"}`: 8,
			`schedd_backpressure_total{reason="rate"}`:                   8,
		}))
}

// quotaRate is a registry of a tenant with a quota of one job an hour,
// one with a one-token bucket refilling at 0.001/s, and the catch-all.
func quotaRate(t *testing.T) *tenant.Config {
	cfg, err := tenant.NewConfig([]tenant.Spec{
		{Name: "q", QuotaJobsPerHour: 1},
		{Name: "r", RatePerSec: 0.001, Burst: 1},
		{Name: "*"},
	})
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

// TestBackpressureStatusTaxonomy pins the rejection taxonomy — 429
// quota, 429 rate, 503 capacity, 413 oversize — with the hint of each,
// across both wires and both typed clients. Capacity is checked after
// the 429s, since the bound check runs before the gate.
func TestBackpressureStatusTaxonomy(t *testing.T) {
	// The binary frame declares its payload length up front, so the
	// oversize origin keeps the declared payload under the limit while the
	// whole frame exceeds it: the read hits the body limit, not the frame
	// check.
	huge := JobRequest{Origin: strings.Repeat("x", httpx.MaxBody-8), LengthHours: 1}
	admit(t, world{policy: sched.FIFO{}, slots: 1, cfg: Config{MaxQueue: 4, Tenants: quotaRate(t)}},
		send(ok, tjob("q")), send(refused(429, "quota exceeded", 3600), tjob("q")),
		send(ok, tjob("r")), send(refused(429, "rate limited", 1000), tjob("r")),
		send(ok, tjob("cap"), tjob("cap")), send(refused(503, "queue full", 1), tjob("cap")),
		send(refused(413, "exceeds", 0), huge),
		series(map[string]float64{
			`schedd_backpressure_total{reason="quota"}`:      4,
			`schedd_backpressure_total{reason="rate"}`:       4,
			`schedd_backpressure_total{reason="queue_full"}`: 4,
			`schedd_backpressure_total{reason="oversize"}`:   4,
		}))
}

// TestRetryAfterHints pins the Retry-After contract on the raw wire:
// every 429 and 503 carries its hint in the Retry-After header and as
// the body's retry_after field, sized to when a retry could succeed —
// the rate deficit of 1000 s, the rest of the fleet hour for a quota,
// a second for a full queue — and Speedup scales the quota's: at 3600x
// replay the hour's remainder is one wall second.
func TestRetryAfterHints(t *testing.T) {
	body := func(tenant string) []byte {
		return fmt.Appendf(nil, `{"origin":"CLEAN","tenant":%q,"length_hours":1}`, tenant)
	}
	admit(t, world{policy: sched.FIFO{}, slots: 1, cfg: Config{MaxQueue: 4, Tenants: quotaRate(t)}},
		send(ok, tjob("r")), post(JSONWire, body("r"), refused(429, "rate limited", 1000)),
		send(ok, tjob("q")), post(JSONWire, body("q"), refused(429, "quota exceeded", 3600)),
		send(ok, tjob("cap"), tjob("cap")), post(JSONWire, body("cap"), refused(503, "queue full", 1)))
	admit(t, world{policy: sched.FIFO{}, slots: 1, cfg: Config{Speedup: 3600, Tenants: quotaRate(t)}},
		send(ok, tjob("q")), post(JSONWire, body("q"), refused(429, "quota exceeded", 1)))
}

// TestMetricsBackpressureCounter: the 503s are counted by reason, and
// by the middleware under each submit route.
func TestMetricsBackpressureCounter(t *testing.T) {
	admit(t, world{policy: sched.FIFO{}, slots: 1, cfg: Config{MaxQueue: 3}},
		send(ok, cjob(2, 4)), send(ok, cjob(2, 4)), send(ok, cjob(2, 4)),
		send(refused(503, "queue full", 1), cjob(2, 4)),
		series(map[string]float64{
			`schedd_backpressure_total{reason="queue_full"}`:              4,
			`http_requests_total{route="POST /v1/jobs",code="503"}`:       2,
			`http_requests_total{route="POST /v1/jobs/batch",code="503"}`: 2,
		}))
}
