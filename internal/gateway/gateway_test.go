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

// fake is a partition that is not a schedd: it owns region R0<index>,
// admits every job under ids from index*idBase, answers lookups of
// them, and echoes its topology and job count in /v1/stats and
// /metrics. mangle, when set, spoils every submit's 200 ack on its way
// out; brokenLookups answers every lookup 500.
type fake struct {
	index         int
	mangle        func(ack []byte) []byte
	brokenLookups bool

	mu      sync.Mutex
	origins []string // by id - index*idBase
}

const idBase = 1_000_000

func (f *fake) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	f.mu.Lock()
	defer f.mu.Unlock()
	base := f.index * idBase
	switch path := r.URL.Path; {
	case path == "/v1/stats":
		httpx.WriteJSON(w, http.StatusOK, schedd.StatsResponse{
			Policy: "fifo", Submitted: len(f.origins),
			Clusters:  []schedd.ClusterInfo{{Region: fmt.Sprintf("R0%d", f.index), Slots: 1}},
			Partition: &schedd.PartitionInfo{ID: f.index, Count: 2, IDBase: base},
		})
	case path == "/metrics":
		fmt.Fprintf(w, "schedd_jobs_submitted_total %d\n", len(f.origins))
	case r.Method == http.MethodGet && strings.HasPrefix(path, "/v1/jobs/"):
		id, _ := strconv.Atoi(strings.TrimPrefix(path, "/v1/jobs/"))
		switch {
		case f.brokenLookups:
			httpx.WriteJSON(w, http.StatusInternalServerError, schedd.ErrorResponse{Error: "job store unreadable"})
		case id < base || id >= base+len(f.origins):
			httpx.WriteJSON(w, http.StatusNotFound, schedd.ErrorResponse{Error: fmt.Sprintf("unknown job %d", id)})
		default:
			httpx.WriteJSON(w, http.StatusOK, schedd.JobResponse{ID: id, Origin: f.origins[id-base]})
		}
	default:
		wire := schedd.JSONWire
		if path == schedd.BinaryWire.Route {
			wire = schedd.BinaryWire
		}
		jobs, _ := wire.DecodeSubmit(r.Body) // the gateway sends what it decoded
		var ids []int
		for _, j := range jobs {
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
		j := job(origin)
		if got := gw.routeJob(&j); got != want {
			t.Errorf("origin %q routes to partition %d, want %d", origin, got, want)
		}
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
