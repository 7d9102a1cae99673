package schedd

// Tests for the binary batch-submit protocol (binary.go) and the
// clients' response limit. Its rejections are rows of the admission
// table (admission_test.go).

import (
	"bytes"
	"context"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"carbonshift/internal/httpx"
	"carbonshift/internal/regions"
	"carbonshift/internal/sched"
	"carbonshift/internal/tracing"
	"carbonshift/internal/wal"
)

// TestBinarySubmitRoundTrip: a binary batch admits, acks correctly,
// and the jobs are visible through the JSON read API.
func TestBinarySubmitRoundTrip(t *testing.T) {
	admit(t, world{policy: sched.FIFO{}, slots: 4, wire: wireBinary},
		send(acked(7, 0, 1),
			pin(7, JobRequest{Origin: "DIRTY", LengthHours: 3, SlackHours: 24, Interruptible: true}),
			JobRequest{Origin: "CLEAN", LengthHours: 2, Migratable: true},
			cjob(1, 0)),
		lookup(0, 7, func(j JobResponse) bool { return j.Origin == "DIRTY" && j.RemainingHours == 3 && j.DeadlineHour == 27 }),
		lookup(1, 0, func(j JobResponse) bool { return j.State != "" }))
}

// TestBinaryAckCodec round-trips ack frames, including non-consecutive
// and negative-delta id sequences.
func TestBinaryAckCodec(t *testing.T) {
	for _, ids := range [][]int{{0}, {1, 2, 3}, {42}, {100, 7, 2000000, 8}} {
		frame := AppendBinaryAck(nil, 13, ids)
		resp, err := DecodeBinaryAck(frame)
		if err != nil {
			t.Fatalf("ids %v: %v", ids, err)
		}
		if resp.ArrivalHour != 13 || resp.Accepted != len(ids) {
			t.Fatalf("ids %v: resp %+v", ids, resp)
		}
		for i, id := range ids {
			if resp.IDs[i] != id {
				t.Fatalf("ids %v: decoded %v", ids, resp.IDs)
			}
		}
	}
	if _, err := DecodeBinaryAck([]byte("CSBA")); err == nil {
		t.Fatal("truncated ack decoded")
	}
}

// TestClientResponseTooLarge is the regression test for the silent
// truncation bug: both client paths (single endpoint and failover)
// used to read exactly MaxBody bytes and let the decoder fail
// confusingly on the cut; they must name the oversize explicitly.
func TestClientResponseTooLarge(t *testing.T) {
	huge := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		chunk := bytes.Repeat([]byte{'x'}, 1<<20)
		for written := 0; written <= httpx.MaxBody; written += len(chunk) {
			if _, err := w.Write(chunk); err != nil {
				return
			}
		}
	}))
	defer huge.Close()

	ctx := context.Background()
	single, err := NewClient(huge.URL, huge.Client())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := single.Stats(ctx); err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("single-endpoint client: err = %v, want response-too-large", err)
	}
	if _, err := single.Submit(ctx, JobRequest{Origin: "CLEAN", LengthHours: 1}); err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("single-endpoint Submit: err = %v, want response-too-large", err)
	}

	fo, err := NewFailoverClient([]string{huge.URL}, huge.Client())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fo.Stats(ctx); err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("failover client: err = %v, want response-too-large", err)
	}
	if _, err := fo.SubmitBatch(ctx, JobRequest{Origin: "CLEAN", LengthHours: 1}); err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("failover SubmitBatch: err = %v, want response-too-large", err)
	}
}

// TestBinaryDecoderInterning: decoding a frame with known origins
// reuses the cluster table's strings.
func TestBinaryDecoderInterning(t *testing.T) {
	srv := newCluster(t, world{policy: sched.FIFO{}, memory: true}).primary.srv
	frame := AppendBinarySubmit(nil, []JobRequest{{Origin: "CLEAN", LengthHours: 1}})
	b := &batch{}
	if err := readBinaryFrame(bytes.NewReader(frame), binReqMagic, b); err != nil {
		t.Fatal(err)
	}
	if err := decodeBinaryJobs(b, srv.origins, srv.tenants); err != nil {
		t.Fatal(err)
	}
	if got, want := b.jobs[0].Origin, srv.origins["CLEAN"]; got != want {
		t.Fatalf("origin %q not interned", got)
	}
}

// TestAdmitRecordFitsMaxRecord: journalAdmit writes a request's whole
// batch as one record, so the largest batch a body under httpx.MaxBody
// can carry must encode under wal.MaxRecord. The bound comes from the
// encoders. The smallest binary job (the catalogue's shortest origin,
// one-byte hours) costs minReq request bytes; a JSON job costs more. An
// admit record repeats each job's request fields and adds at most grow
// bytes: an auto id, and an arrival hour, which sched.Job.Validate
// holds under 2^31. So n ≤ MaxBody/minReq jobs make a record of at most
// its header, plus MaxBody, plus n·grow.
func TestAdmitRecordFitsMaxRecord(t *testing.T) {
	origin := regions.All()[0].Code
	for _, r := range regions.All() {
		if len(r.Code) < len(origin) {
			origin = r.Code
		}
	}
	const id, arrival = math.MaxInt, math.MaxInt32 // the widest varints either can be
	tid := tracing.TraceID{1}
	// Each encoder's bytes for one more job, so the frame and record
	// headers drop out.
	reqBytes := func(jr JobRequest) int {
		return len(AppendBinarySubmit(nil, []JobRequest{jr, jr})) - len(AppendBinarySubmit(nil, []JobRequest{jr}))
	}
	admitBytes := func(jr JobRequest) int {
		j := sched.Job{ID: id, Origin: jr.Origin, Tenant: jr.Tenant, Arrival: arrival, Length: jr.LengthHours,
			Slack: jr.SlackHours, Interruptible: jr.Interruptible, Migratable: jr.Migratable}
		return len(encodeAdmit(arrival, id, []sched.Job{j, j}, tid)) - len(encodeAdmit(arrival, id, []sched.Job{j}, tid))
	}
	small := JobRequest{Origin: origin}
	minReq, grow := reqBytes(small), admitBytes(small)-reqBytes(small)
	explicit := 1 << 40
	for _, jr := range []JobRequest{
		{Origin: "US-CAL-CISO", LengthHours: 1 << 20, SlackHours: 300, Tenant: "analytics", Interruptible: true, Migratable: true},
		{ID: &explicit, Origin: origin, LengthHours: 3},
	} {
		if g := admitBytes(jr) - reqBytes(jr); g > grow {
			t.Fatalf("%+v grows by %d bytes in its admit record, past the smallest job's %d", jr, g, grow)
		}
	}
	// The job count's varint is at most 4 bytes for any count a body holds.
	header := len(encodeAdmit(arrival, id, nil, tid)) + 3
	bound := header + httpx.MaxBody + httpx.MaxBody/minReq*grow
	t.Logf("jobs ≥ %d B, admit growth ≤ %d B a job: a record ≤ %d B of %d", minReq, grow, bound, wal.MaxRecord)
	if bound > wal.MaxRecord {
		t.Fatalf("a %d B body of %d B jobs makes an admit record of up to %d B, past wal.MaxRecord", httpx.MaxBody, minReq, bound)
	}
}
