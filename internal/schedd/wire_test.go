package schedd

// Tests over both Wire values at once: the codec round trip and the
// per-request allocation budget of the shared submit pipeline.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"carbonshift/internal/sched"
)

// TestWireRoundTrip: for each protocol, a batch survives
// AppendSubmit → DecodeSubmit and an ack survives AppendAck →
// DecodeAck, and each wire's shape rule holds — JSON sends one job as a
// bare object, binary stays on frame version 1 until a job names a
// tenant.
func TestWireRoundTrip(t *testing.T) {
	seven, minus := 7, -3
	many := make([]JobRequest, 64)
	for i := range many {
		many[i] = JobRequest{Origin: "CLEAN", LengthHours: 1 + i%5, SlackHours: i, Interruptible: i%2 == 0, Migratable: i%3 == 0}
	}
	batches := []struct {
		name string
		jobs []JobRequest
		// bare: JSON encodes the batch as a bare object; v2: binary
		// needs the tenant frame version.
		bare, v2 bool
	}{
		{name: "1 job", jobs: []JobRequest{{Origin: "DIRTY", LengthHours: 3, SlackHours: 24}}, bare: true},
		{name: "64 jobs", jobs: many},
		{name: "explicit ids", jobs: []JobRequest{
			{ID: &seven, Origin: "CLEAN", LengthHours: 1},
			{Origin: "DIRTY", LengthHours: 2, Migratable: true},
			{ID: &minus, Origin: "CLEAN", LengthHours: 1, Interruptible: true},
		}},
		{name: "tenants", jobs: []JobRequest{
			{Origin: "CLEAN", Tenant: "web", LengthHours: 1},
			{Origin: "DIRTY", LengthHours: 2, SlackHours: 6},
		}, v2: true},
		{name: "1 tenant job", jobs: []JobRequest{{Origin: "CLEAN", Tenant: "web", LengthHours: 1}}, bare: true, v2: true},
	}
	for _, wire := range Wires {
		for _, tc := range batches {
			t.Run(wire.Proto+"/"+tc.name, func(t *testing.T) {
				enc, err := wire.AppendSubmit(nil, tc.jobs)
				if err != nil {
					t.Fatal(err)
				}
				got, err := wire.DecodeSubmit(bytes.NewReader(enc))
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, tc.jobs) {
					t.Fatalf("submit round trip:\n got %+v\nwant %+v", got, tc.jobs)
				}
				switch wire {
				case JSONWire:
					var shape map[string]json.RawMessage
					if err := json.Unmarshal(enc, &shape); err != nil {
						t.Fatal(err)
					}
					if _, wrapped := shape["jobs"]; wrapped == tc.bare {
						t.Fatalf("bare-object shape = %v, want %v: %s", !wrapped, tc.bare, enc)
					}
				case BinaryWire:
					want := byte(binVersion)
					if tc.v2 {
						want = binVersionTenant
					}
					if enc[4] != want {
						t.Fatalf("frame version %d, want %d", enc[4], want)
					}
				}

				ids := make([]int, len(tc.jobs))
				for i := range ids {
					ids[i] = 100 + 3*i
					if id := tc.jobs[i].ID; id != nil {
						ids[i] = *id
					}
				}
				ack, err := wire.DecodeAck(wire.AppendAck(nil, 13, ids))
				if err != nil {
					t.Fatal(err)
				}
				if want := (SubmitResponse{IDs: ids, ArrivalHour: 13, Accepted: len(ids)}); !reflect.DeepEqual(ack, want) {
					t.Fatalf("ack round trip: got %+v, want %+v", ack, want)
				}
			})
		}
	}
	if _, err := BinaryWire.AppendSubmit(nil, []JobRequest{{Origin: "CLEAN", LengthHours: -1}}); err == nil {
		t.Fatal("binary wire encoded a negative length into its unsigned format")
	}
}

// raceEnabled is set by raceon_test.go in -race builds.
var raceEnabled bool

// discardWriter is an http.ResponseWriter that keeps nothing.
type discardWriter struct{ h http.Header }

func (d *discardWriter) Header() http.Header         { return d.h }
func (d *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (d *discardWriter) WriteHeader(int)             {}

// rewindBody is a request body that can be replayed without allocating.
type rewindBody struct{ bytes.Reader }

func (*rewindBody) Close() error { return nil }

// TestSubmitHandlerAllocs pins the per-request allocation count of the
// submit pipeline (binary.go's header states it): serveSubmit called
// directly, metrics and tracing off, in-memory, 64 jobs per request,
// one reused request and a discarding ResponseWriter. This harness
// reads 4 (binary) and 90 (JSON); JSON's bound is what its own
// hand-written handler cost before the routes shared a pipeline, so
// sharing the pooled batch may hold or lower its count, never raise it.
func TestSubmitHandlerAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	jobs := make([]JobRequest, 64)
	for i := range jobs {
		jobs[i] = JobRequest{Origin: "CLEAN", LengthHours: 1, SlackHours: 24}
	}
	for wire, limit := range map[*Wire]float64{BinaryWire: 5, JSONWire: 92} {
		t.Run(wire.Proto, func(t *testing.T) {
			srv, err := New(mkSet(t, 48, 2), clusters(4),
				Config{Policy: sched.FIFO{}, MaxQueue: 1 << 20},
				WithClock(func() time.Time { return t0 }), WithoutMetrics(), WithoutTracing())
			if err != nil {
				t.Fatal(err)
			}
			payload, err := wire.AppendSubmit(nil, jobs)
			if err != nil {
				t.Fatal(err)
			}
			body := &rewindBody{}
			req := httptest.NewRequest(http.MethodPost, wire.Route, nil)
			req.Header.Set("Content-Type", wire.ContentType)
			req.Body = body
			w := &discardWriter{h: make(http.Header)}
			got := testing.AllocsPerRun(200, func() {
				body.Reset(payload)
				srv.serveSubmit(w, req, wire)
			})
			if got > limit {
				t.Fatalf("%.1f allocations per request, want <= %.0f", got, limit)
			}
			if n := srv.fleet.Jobs(); n != 201*len(jobs) {
				t.Fatalf("%d jobs admitted, want %d: the measured requests were not all acked", n, 201*len(jobs))
			}
			t.Logf("%.1f allocations per request", got)
		})
	}
}
