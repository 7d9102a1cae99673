package gateway

// The gateway's own tests, over fake partitions that fail as a schedd
// does not: an unreadable ack, a failing lookup, a listener gone and
// back, no answer at all. The gateway in front of real partitions is
// tested by rows of internal/schedd's partitioned fleet.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"carbonshift/internal/httpx"
	"carbonshift/internal/metrics"
	"carbonshift/internal/schedd"
)

func job(origin string) schedd.JobRequest {
	return schedd.JobRequest{Origin: origin, LengthHours: 1, SlackHours: 24}
}

// fake is a partition that is not a schedd: it owns region R0<index>
// and the regions in claims, one slot each, admits every job under ids
// from index*idBase (or under its explicit id), answers lookups of
// them, and echoes its topology, job count and util in /v1/stats and
// /metrics, with primaryHour as repl_primary_hour when it is set.
// mangle, when set, spoils every submit's 200 ack on its way
// out; brokenLookups answers every lookup 500; refuse, when set, answers
// every submit with that status and a retryAfter hint.
type fake struct {
	index              int
	mangle             func(ack []byte) []byte
	brokenLookups      bool
	refuse, retryAfter int
	util               float64
	primaryHour        int

	mu      sync.Mutex
	claims  []string
	origins []string       // by id - index*idBase
	pinned  map[int]string // origins by explicit id
	lookups int
}

const idBase = 1_000_000

func (f *fake) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	f.mu.Lock()
	defer f.mu.Unlock()
	base := f.index * idBase
	switch path := r.URL.Path; {
	case path == "/v1/stats":
		st := schedd.StatsResponse{Policy: "fifo", Submitted: len(f.origins),
			Partition: &schedd.PartitionInfo{ID: f.index, Count: 2, IDBase: base}}
		for _, region := range append([]string{fmt.Sprintf("R0%d", f.index)}, f.claims...) {
			st.Clusters = append(st.Clusters, schedd.ClusterInfo{Region: region, Slots: 1})
		}
		httpx.WriteJSON(w, http.StatusOK, st)
	case path == "/metrics":
		fmt.Fprintf(w, "schedd_jobs_submitted_total %d\nschedd_utilization_ratio %g\n", len(f.origins), f.util)
		if f.primaryHour != 0 {
			fmt.Fprintf(w, "repl_primary_hour %d\n", f.primaryHour)
		}
	case r.Method == http.MethodGet && strings.HasPrefix(path, "/v1/jobs/"):
		f.lookups++
		id, _ := strconv.Atoi(strings.TrimPrefix(path, "/v1/jobs/"))
		origin, pinned := f.pinned[id]
		switch {
		case f.brokenLookups:
			httpx.WriteJSON(w, http.StatusInternalServerError, schedd.ErrorResponse{Error: "job store unreadable"})
		case pinned:
			httpx.WriteJSON(w, http.StatusOK, schedd.JobResponse{ID: id, Origin: origin})
		case id < base || id >= base+len(f.origins):
			httpx.WriteJSON(w, http.StatusNotFound, schedd.ErrorResponse{Error: fmt.Sprintf("unknown job %d", id)})
		default:
			httpx.WriteJSON(w, http.StatusOK, schedd.JobResponse{ID: id, Origin: f.origins[id-base]})
		}
	case f.refuse != 0:
		httpx.WriteJSON(w, f.refuse, schedd.ErrorResponse{Error: fmt.Sprintf("partition %d refuses", f.index), RetryAfter: f.retryAfter})
	default:
		wire := schedd.JSONWire
		if path == schedd.BinaryWire.Route {
			wire = schedd.BinaryWire
		}
		jobs, _ := wire.DecodeSubmit(r.Body) // the gateway sends what it decoded
		var ids []int
		for _, j := range jobs {
			if j.ID != nil {
				if f.pinned == nil {
					f.pinned = make(map[int]string)
				}
				f.pinned[*j.ID] = j.Origin
				ids = append(ids, *j.ID)
				continue
			}
			ids = append(ids, base+len(f.origins))
			f.origins = append(f.origins, j.Origin)
		}
		ack := wire.AppendAck(nil, 0, ids)
		if f.mangle != nil {
			ack = f.mangle(ack)
		}
		w.Header().Set("Content-Type", wire.ContentType)
		w.Write(ack)
	}
}

// startAll starts a server for each handler and returns their URLs.
func startAll(t *testing.T, hs ...http.Handler) []string {
	t.Helper()
	var urls []string
	for _, h := range hs {
		ts := httptest.NewServer(h)
		t.Cleanup(ts.Close)
		urls = append(urls, ts.URL)
	}
	return urls
}

// newGateway builds a gateway over the partitions' URLs.
func newGateway(t *testing.T, cfg Config) *Gateway {
	t.Helper()
	gw, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return gw
}

// get sends a GET to the gateway in process.
func get(gw *Gateway, path string) *httptest.ResponseRecorder {
	rr := httptest.NewRecorder()
	gw.Handler().ServeHTTP(rr, httptest.NewRequest(http.MethodGet, path, nil))
	return rr
}

// submit sends jobs to the gateway in process over wire.
func submit(gw *Gateway, wire *schedd.Wire, jobs ...schedd.JobRequest) *httptest.ResponseRecorder {
	body, _ := wire.AppendSubmit(nil, jobs) // the tests' jobs all encode
	req := httptest.NewRequest(http.MethodPost, wire.Route, bytes.NewReader(body))
	req.Header.Set("Content-Type", wire.ContentType)
	rr := httptest.NewRecorder()
	gw.Handler().ServeHTTP(rr, req)
	return rr
}

// admitted submits one job over JSON and returns the id it was acked
// under.
func admitted(t *testing.T, gw *Gateway, origin string) int {
	t.Helper()
	rr := submit(gw, schedd.JSONWire, job(origin))
	ack, err := schedd.JSONWire.DecodeAck(rr.Body.Bytes())
	if rr.Code != http.StatusOK || err != nil {
		t.Fatalf("submit from %s: %d %s", origin, rr.Code, rr.Body)
	}
	return ack.IDs[0]
}

// TestUnknownOriginRoute pins the stable-hash fallback for origins the
// topology does not know: the same partition on every platform, never
// a negative index where int is 32 bits (GOARCH=386).
func TestUnknownOriginRoute(t *testing.T) {
	gw := newGateway(t, Config{Partitions: [][]string{{"http://p0"}, {"http://p1"}, {"http://p2"}}})
	for origin, want := range map[string]int{"A": 0, "nope": 1, "XX-UNKNOWN": 2, "mars": 1, "R99": 0, "": 1, "zz": 0} {
		if groups, known := gw.route([]schedd.JobRequest{job(origin)}); known || len(groups[want]) != 1 {
			t.Errorf("origin %q routes to %v (known %v), want partition %d", origin, groups, known, want)
		}
	}
}

// TestUndecodableAckIs502: a partition that answers 200 with an ack the
// gateway cannot read — a binary frame cut mid-payload, one with a CRC
// bit flipped, JSON that is not JSON, an ack with one id too few or too
// many for its sub-batch, on either wire — has admitted the sub-batch, so
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
		{"binary ack one id short", schedd.BinaryWire, resizeAck(schedd.BinaryWire, -1)},
		{"binary ack one id over", schedd.BinaryWire, resizeAck(schedd.BinaryWire, +1)},
		{"json ack one id short", schedd.JSONWire, resizeAck(schedd.JSONWire, -1)},
		{"json ack one id over", schedd.JSONWire, resizeAck(schedd.JSONWire, +1)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p0, p1 := &fake{index: 0}, &fake{index: 1, mangle: tc.mangle}
			gw := newGateway(t, Config{Partitions: [][]string{startAll(t, p0), startAll(t, p1, p1)}})
			rr := submit(gw, tc.wire, job("R01"), job("R00"), job("R01"))
			var ms schedd.MultiStatusResponse
			if rr.Code != http.StatusMultiStatus || json.Unmarshal(rr.Body.Bytes(), &ms) != nil {
				t.Fatalf("status %d (%s), want a 207", rr.Code, rr.Body)
			}
			if ms.Accepted != 1 || len(ms.Outcomes) != 3 {
				t.Fatalf("207 = %+v, want 1 accepted of 3 outcomes", ms)
			}
			for i, o := range ms.Outcomes {
				bad := o.Status != http.StatusBadGateway || o.Partition != 1 || o.ID != 0 || !strings.HasPrefix(o.Error, "partition 1: bad ack: ")
				if i == 1 {
					lk := get(gw, fmt.Sprintf("/v1/jobs/%d", o.ID))
					bad = o.Status != http.StatusOK || o.Partition != 0 || lk.Code != http.StatusOK || !strings.Contains(lk.Body.String(), `"origin":"R00"`)
				}
				if bad {
					t.Fatalf("outcome %d = %+v; want the R00 job admitted on partition 0, found by a lookup, the others 502 \"partition 1: bad ack: …\"", i, o)
				}
			}
			// The write the gateway could not read the ack of is real, and
			// was not sent again.
			p1.mu.Lock()
			defer p1.mu.Unlock()
			if len(p1.origins) != 2 {
				t.Fatalf("partition 1 holds %d jobs, want the sub-batch's 2 once", len(p1.origins))
			}
		})
	}
}

// resizeAck re-encodes a well-formed ack over wire with one id dropped
// (delta -1) or one added (delta +1).
func resizeAck(wire *schedd.Wire, delta int) func(ack []byte) []byte {
	return func(ack []byte) []byte {
		a, err := wire.DecodeAck(ack)
		if err != nil {
			panic(err)
		}
		ids := a.IDs[:len(a.IDs)-1]
		if delta > 0 {
			ids = append(a.IDs, a.IDs[0]+idBase/2)
		}
		return wire.AppendAck(nil, a.ArrivalHour, ids)
	}
}

// TestMergedHeartbeatHourTakesMax: repl_primary_hour is a clock — the
// hour of a promoted standby's last heartbeat from its old primary — so
// the merged scrape reads the furthest-along partition's, not a sum.
func TestMergedHeartbeatHourTakesMax(t *testing.T) {
	gw := newGateway(t, Config{Partitions: [][]string{
		startAll(t, &fake{index: 0, primaryHour: 7}), startAll(t, &fake{index: 1, primaryHour: 9})}})
	sc, err := metrics.ParseText(get(gw, "/metrics").Body)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := sc.Value("repl_primary_hour"); got != 9 || !ok {
		t.Fatalf("merged repl_primary_hour = %v (present %v), want the larger hour, 9", got, ok)
	}
}

// TestJobLookupPartitionFailure: a lookup the owning partition fails
// with a 5xx is answered 502 with the partition's message — the job may
// well exist, so the gateway must not report it unknown.
func TestJobLookupPartitionFailure(t *testing.T) {
	gw := newGateway(t, Config{Partitions: [][]string{startAll(t, &fake{index: 0}), startAll(t, &fake{index: 1, brokenLookups: true})}})
	broken := admitted(t, gw, "R01")
	if broken < idBase {
		t.Fatalf("job %d is not in partition 1's id range", broken)
	}
	if rr := get(gw, fmt.Sprintf("/v1/jobs/%d", broken)); rr.Code != http.StatusBadGateway || !strings.Contains(rr.Body.String(), "job store unreadable") {
		t.Fatalf("owner fails the lookup: %d %s, want 502 with its message", rr.Code, rr.Body)
	}
	// The healthy partition's jobs still resolve.
	healthy := admitted(t, gw, "R00")
	if rr := get(gw, fmt.Sprintf("/v1/jobs/%d", healthy)); rr.Code != http.StatusOK {
		t.Fatalf("healthy partition's job %d: %d %s", healthy, rr.Code, rr.Body)
	}
}

// TestSubmitAllPartitionsDown: with no partition reachable the gateway
// answers 503 with a Retry-After, never a hang or a 5xx surprise.
func TestSubmitAllPartitionsDown(t *testing.T) {
	gw := newGateway(t, Config{Partitions: [][]string{{"http://127.0.0.1:9"}, {"http://127.0.0.1:9"}}})
	rr := submit(gw, schedd.JSONWire, job("R00"))
	if rr.Code != http.StatusServiceUnavailable || rr.Header().Get("Retry-After") != "1" ||
		!strings.Contains(rr.Body.String(), "no partition reachable") {
		t.Fatalf("all down: %d, Retry-After %q, %s; want 503, 1, no partition reachable", rr.Code, rr.Header().Get("Retry-After"), rr.Body)
	}
}

// TestSilentPartitionStallsOnlyItsOwn: a partition that accepts
// connections and never answers costs a request only when the request
// needs what that partition would teach. Once the first submit has
// learned the healthy partition's region, its submits and lookups come
// back within one client timeout.
func TestSilentPartitionStallsOnlyItsOwn(t *testing.T) {
	const timeout = 200 * time.Millisecond
	silent := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { <-r.Context().Done() })
	gw := newGateway(t, Config{
		Partitions: [][]string{startAll(t, &fake{index: 0}), startAll(t, silent)},
		HTTPClient: &http.Client{Timeout: timeout},
	})
	admitted(t, gw, "R00") // learns partition 0, waits on 1
	for i := range 3 {
		start := time.Now()
		id := admitted(t, gw, "R00")
		if rr := get(gw, fmt.Sprintf("/v1/jobs/%d", id)); rr.Code != http.StatusOK {
			t.Fatalf("lookup of job %d: %d %s", id, rr.Code, rr.Body)
		}
		if took := time.Since(start); took >= timeout {
			t.Fatalf("submit and lookup %d to the healthy partition took %v, past one client timeout of %v", i, took, timeout)
		}
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
		// call exercises the kind against partition 1; it reports whether
		// the gateway answered the way a healthy fleet answers.
		call func(gw *Gateway, id int) (ok bool)
	}{
		{"proxied submit", func(gw *Gateway, _ int) bool {
			return submit(gw, schedd.JSONWire, job("R01")).Code == http.StatusOK
		}},
		{"split submit", func(gw *Gateway, _ int) bool {
			return submit(gw, schedd.BinaryWire, job("R00"), job("R01")).Code == http.StatusOK
		}},
		{"job lookup", func(gw *Gateway, id int) bool {
			return get(gw, fmt.Sprintf("/v1/jobs/%d", id)).Code == http.StatusOK
		}},
		{"stats scatter", func(gw *Gateway, _ int) bool {
			var st StatsResponse
			return json.Unmarshal(get(gw, "/v1/stats").Body.Bytes(), &st) == nil && len(st.Gateway.Missing) == 0
		}},
		{"metrics scrape", func(gw *Gateway, _ int) bool {
			sc, err := metrics.ParseText(get(gw, "/metrics").Body)
			// The fixture's one job lives on partition 1: the merge counts
			// it only when that partition was scraped.
			return err == nil && sc.Sum("schedd_jobs_submitted_total") == 1
		}},
	} {
		t.Run(tc.kind, func(t *testing.T) {
			p1 := &fake{index: 1}
			ts := httptest.NewServer(p1)
			gw := newGateway(t, Config{Partitions: [][]string{startAll(t, &fake{index: 0}), {ts.URL}}})
			health := func() (up, errs float64) {
				var buf bytes.Buffer
				gw.Metrics().WriteTo(&buf)
				sc, err := metrics.ParseText(&buf)
				if err != nil {
					t.Fatal(err)
				}
				return sc.Samples[`gateway_partition_up{partition="1"}`], sc.Samples[`gateway_partition_errors_total{partition="1"}`]
			}
			// Learn the topology and put a job on partition 1 while it is up.
			id := admitted(t, gw, "R01")
			if up, errs := health(); up != 1 || errs != 0 {
				t.Fatalf("healthy start: up=%v errors=%v, want 1 / 0", up, errs)
			}

			addr := ts.Listener.Addr().String()
			ts.Close()
			if tc.call(gw, id) {
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
			back := httptest.NewUnstartedServer(p1)
			back.Listener.Close()
			back.Listener = l
			back.Start()
			t.Cleanup(back.Close)
			if !tc.call(gw, id) {
				t.Fatal("call failed with partition 1 reopened")
			}
			if up, errs := health(); up != 1 || errs != 1 {
				t.Fatalf("listener reopened: up=%v errors=%v, want 1 / 1 — this call kind alone must refresh the gauge", up, errs)
			}
		})
	}
}

// TestRoutingTablePaths: the routing table's paths a healthy fleet
// never takes, each a row over two fake partitions and a gateway that
// has learned nothing yet.
func TestRoutingTablePaths(t *testing.T) {
	for _, tc := range []struct {
		name  string
		parts [2]*fake
		check func(t *testing.T, gw *Gateway, cfg Config, parts [2]*fake)
	}{
		{"a region claimed twice keeps its first owner", [2]*fake{{index: 0}, {index: 1}},
			func(t *testing.T, gw *Gateway, _ Config, parts [2]*fake) {
				admitted(t, gw, "R00") // learns both partitions
				parts[1].mu.Lock()
				parts[1].claims = []string{"R00"}
				parts[1].mu.Unlock()
				get(gw, "/v1/stats") // absorbs every echo again, partition 1's claim to R00 too
				if id := admitted(t, gw, "R00"); id >= idBase {
					t.Fatalf("R00's job %d went to partition 1, the second claimant", id)
				}
				var buf bytes.Buffer
				gw.Metrics().WriteTo(&buf)
				sc, err := metrics.ParseText(&buf)
				if err != nil {
					t.Fatal(err)
				}
				if n := sc.Sum("gateway_topology_conflicts_total"); n != 1 {
					t.Fatalf("gateway_topology_conflicts_total %v, want 1", n)
				}
			}},
		{"differing refusals answer 207 with each partition's own", [2]*fake{{index: 0, refuse: 429, retryAfter: 3}, {index: 1, refuse: 503, retryAfter: 7}},
			func(t *testing.T, gw *Gateway, _ Config, _ [2]*fake) {
				rr := submit(gw, schedd.BinaryWire, job("R00"), job("R01"), job("R00"))
				var ms schedd.MultiStatusResponse
				if rr.Code != http.StatusMultiStatus || json.Unmarshal(rr.Body.Bytes(), &ms) != nil || ms.Accepted != 0 || len(ms.Outcomes) != 3 {
					t.Fatalf("%d %s, want a 207 of 3 outcomes, none accepted", rr.Code, rr.Body)
				}
				for i, o := range ms.Outcomes {
					want := schedd.JobOutcome{Partition: 0, Status: 429, Error: "partition 0 refuses", RetryAfter: 3}
					if i == 1 {
						want = schedd.JobOutcome{Partition: 1, Status: 503, Error: "partition 1 refuses", RetryAfter: 7}
					}
					if o != want {
						t.Fatalf("outcome %d = %+v, want %+v", i, o, want)
					}
				}
			}},
		{"a cold lookup learns the id bases before it routes", [2]*fake{{index: 0}, {index: 1}},
			func(t *testing.T, gw *Gateway, cfg Config, parts [2]*fake) {
				id := admitted(t, newGateway(t, cfg), "R01") // through another gateway: this one stays cold
				rr := get(gw, fmt.Sprintf("/v1/jobs/%d", id))
				parts[0].mu.Lock()
				defer parts[0].mu.Unlock()
				if rr.Code != http.StatusOK || parts[0].lookups != 0 {
					t.Fatalf("lookup of job %d: %d %s after %d lookups on partition 0, want 200 from its owner alone", id, rr.Code, rr.Body, parts[0].lookups)
				}
			}},
		{"an explicit id outside its range is found by asking the rest", [2]*fake{{index: 0}, {index: 1}},
			func(t *testing.T, gw *Gateway, _ Config, _ [2]*fake) {
				id := 5 // in partition 0's range, admitted by partition 1, which owns R01
				jr := job("R01")
				jr.ID = &id
				if rr := submit(gw, schedd.JSONWire, jr); rr.Code != http.StatusOK {
					t.Fatalf("submit: %d %s", rr.Code, rr.Body)
				}
				if rr := get(gw, "/v1/jobs/5"); rr.Code != http.StatusOK || !strings.Contains(rr.Body.String(), `"origin":"R01"`) {
					t.Fatalf("lookup of job 5: %d %s, want partition 1's R01 job", rr.Code, rr.Body)
				}
			}},
		{"a cold metrics scrape fetches the slot weights", [2]*fake{{index: 0, util: 1}, {index: 1, claims: []string{"R11", "R12"}}},
			func(t *testing.T, gw *Gateway, _ Config, _ [2]*fake) {
				// One busy slot beside three idle ones.
				sc, err := metrics.ParseText(get(gw, "/metrics").Body)
				if err != nil {
					t.Fatal(err)
				}
				if util, _ := sc.Value("schedd_utilization_ratio"); util != 0.25 {
					t.Fatalf("merged utilization %v, want 0.25", util)
				}
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{Partitions: [][]string{startAll(t, tc.parts[0]), startAll(t, tc.parts[1])}}
			tc.check(t, newGateway(t, cfg), cfg, tc.parts)
		})
	}
}
