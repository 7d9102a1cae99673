package schedd

// Tests for the binary batch-submit protocol (binary.go) and the
// submit-protocol bugfix sweep that shipped with it: empty-batch
// rejection, trailing-garbage rejection, and the 413 oversize mapping.

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"carbonshift/internal/httpx"
	"carbonshift/internal/sched"
)

// postRaw drives the handler directly with an arbitrary body.
func postRaw(t *testing.T, srv *Server, path, contentType string, body []byte) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	rr := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rr, req)
	return rr
}

// TestDecodeSubmitRejectsEmptyBatch is the regression test for the
// empty-batch bug: {"jobs":[]} used to fall through to a single
// zero-valued JobRequest and admit a garbage job; it must be a 400.
func TestDecodeSubmitRejectsEmptyBatch(t *testing.T) {
	if _, err := DecodeSubmit(strings.NewReader(`{"jobs":[]}`)); err == nil {
		t.Fatal("DecodeSubmit accepted an explicit empty batch")
	}
	srv, _, _ := startServer(t, Config{Policy: sched.FIFO{}}, 4)
	rr := postRaw(t, srv, "/v1/jobs", "application/json", []byte(`{"jobs":[]}`))
	if rr.Code != http.StatusBadRequest {
		t.Fatalf("status %d for empty batch, want 400 (%s)", rr.Code, rr.Body.String())
	}
	if !strings.Contains(rr.Body.String(), "empty job batch") {
		t.Fatalf("error %q does not name the empty batch", rr.Body.String())
	}
}

// TestDecodeSubmitRejectsTrailingGarbage is the regression test for
// the trailing-data bug: json.Decoder stops at the first value, so a
// valid job followed by garbage (or a second value) used to be
// accepted wholesale.
func TestDecodeSubmitRejectsTrailingGarbage(t *testing.T) {
	valid := `{"origin":"CLEAN","length_hours":1}`
	for _, tail := range []string{`garbage`, `{"origin":"DIRTY"}`, `[1,2]`, `0`} {
		if _, err := DecodeSubmit(strings.NewReader(valid + " " + tail)); err == nil {
			t.Fatalf("DecodeSubmit accepted trailing %q", tail)
		}
	}
	// Trailing whitespace stays fine.
	if _, err := DecodeSubmit(strings.NewReader(valid + " \n\t ")); err != nil {
		t.Fatalf("DecodeSubmit rejected trailing whitespace: %v", err)
	}
	srv, _, _ := startServer(t, Config{Policy: sched.FIFO{}}, 4)
	rr := postRaw(t, srv, "/v1/jobs", "application/json", []byte(valid+` x`))
	if rr.Code != http.StatusBadRequest {
		t.Fatalf("status %d for trailing garbage, want 400 (%s)", rr.Code, rr.Body.String())
	}
}

// TestSubmitOversizeBody413 is the regression test for the oversize
// mapping: a body past httpx.MaxBody used to surface as a generic 400
// out of the JSON decode error; it must be a 413 with a
// schedd_backpressure_total{reason="oversize"} count, on both routes.
func TestSubmitOversizeBody413(t *testing.T) {
	srv, _, _ := startServer(t, Config{Policy: sched.FIFO{}}, 4)
	huge := make([]byte, httpx.MaxBody+2)
	for i := range huge {
		huge[i] = 'a'
	}
	copy(huge, `{"origin":"`)

	rr := postRaw(t, srv, "/v1/jobs", "application/json", huge)
	if rr.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("JSON route: status %d for oversize body, want 413 (%s)", rr.Code, rr.Body.String())
	}
	// The binary route maps the same limit the same way: an otherwise
	// plausible frame whose body overruns MaxBody.
	copy(huge, binReqMagic)
	huge[4] = binVersion
	binary.BigEndian.PutUint32(huge[5:9], uint32(len(huge)))
	rr = postRaw(t, srv, "/v1/jobs/batch", BinaryContentType, huge)
	if rr.Code != http.StatusBadRequest && rr.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("binary route: status %d for oversize frame (%s)", rr.Code, rr.Body.String())
	}
	// A frame whose declared payload length is allowed but whose total
	// body (header + payload) overruns MaxBody hits the body limit
	// mid-read — the 413 case on the binary route.
	overrun := make([]byte, binHeaderLen+httpx.MaxBody-4)
	copy(overrun, binReqMagic)
	overrun[4] = binVersion
	binary.BigEndian.PutUint32(overrun[5:9], httpx.MaxBody-4)
	rr = postRaw(t, srv, "/v1/jobs/batch", BinaryContentType, overrun)
	if rr.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("binary route: status %d for oversize body, want 413 (%s)", rr.Code, rr.Body.String())
	}

	var metricsOut bytes.Buffer
	if err := srv.Metrics().WriteTo(&metricsOut); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(metricsOut.String(), `schedd_backpressure_total{reason="oversize"} 2`) {
		t.Fatalf("oversize backpressure not counted:\n%s", metricsOut.String())
	}
}

// TestBinarySubmitRoundTrip: a binary batch admits, acks correctly,
// and the jobs are visible through the JSON read API.
func TestBinarySubmitRoundTrip(t *testing.T) {
	srv, client, clock := startServer(t, Config{Policy: sched.FIFO{}}, 4)
	ctx := context.Background()

	seven := 7
	ack, err := client.SubmitBatch(ctx,
		JobRequest{ID: &seven, Origin: "DIRTY", LengthHours: 3, SlackHours: 24, Interruptible: true},
		JobRequest{Origin: "CLEAN", LengthHours: 2, Migratable: true},
		JobRequest{Origin: "CLEAN", LengthHours: 1},
	)
	if err != nil {
		t.Fatal(err)
	}
	if ack.Accepted != 3 || ack.ArrivalHour != 0 {
		t.Fatalf("ack = %+v", ack)
	}
	if ack.IDs[0] != 7 || ack.IDs[1] == 7 || ack.IDs[2] == 7 || ack.IDs[1] == ack.IDs[2] {
		t.Fatalf("ids = %v", ack.IDs)
	}
	job, err := client.Job(ctx, 7)
	if err != nil {
		t.Fatal(err)
	}
	if job.Origin != "DIRTY" || job.RemainingHours != 3 || job.DeadlineHour != 27 {
		t.Fatalf("job 7 = %+v", job)
	}
	clock.hour.Store(1)
	if job, err = client.Job(ctx, ack.IDs[1]); err != nil || job.State == "" {
		t.Fatalf("job %d: %+v, %v", ack.IDs[1], job, err)
	}
	_ = srv
}

// TestBinarySubmitRejections covers the protocol-level 400s: empty
// batch, bad magic, bad version, CRC mismatch, trailing bytes, a lying
// length prefix, and the content-type gate.
func TestBinarySubmitRejections(t *testing.T) {
	srv, _, _ := startServer(t, Config{Policy: sched.FIFO{}}, 4)
	valid := AppendBinarySubmit(nil, []JobRequest{{Origin: "CLEAN", LengthHours: 1}})

	empty := appendBinaryFrame(nil, binReqMagic, binVersion, func(buf []byte) []byte {
		return binary.AppendUvarint(buf, 0)
	})
	badMagic := bytes.Clone(valid)
	copy(badMagic, "XXXX")
	badVersion := bytes.Clone(valid)
	badVersion[4] = 99
	badCRC := bytes.Clone(valid)
	badCRC[len(badCRC)-1] ^= 0xff
	trailing := append(bytes.Clone(valid), 0)
	hugeLen := bytes.Clone(valid)
	binary.BigEndian.PutUint32(hugeLen[5:9], httpx.MaxBody+1)
	truncated := valid[:len(valid)-2]

	cases := map[string][]byte{
		"empty batch": empty, "bad magic": badMagic, "bad version": badVersion,
		"bad crc": badCRC, "trailing byte": trailing, "huge length": hugeLen,
		"truncated": truncated,
	}
	for name, body := range cases {
		if rr := postRaw(t, srv, "/v1/jobs/batch", BinaryContentType, body); rr.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", name, rr.Code, rr.Body.String())
		}
	}
	if rr := postRaw(t, srv, "/v1/jobs/batch", "application/json", valid); rr.Code != http.StatusUnsupportedMediaType {
		t.Errorf("wrong content type: status %d, want 415", rr.Code)
	}
	if rr := postRaw(t, srv, "/v1/jobs/batch", BinaryContentType, valid); rr.Code != http.StatusOK {
		t.Errorf("valid frame after rejections: status %d (%s)", rr.Code, rr.Body.String())
	}
}

// TestSubmitHourBound400: a slack that would carry the deadline past
// sched's hour bound (it used to wrap the deadline negative) is a 400 on
// both protocols, admits nothing, and leaves the server serving.
func TestSubmitHourBound400(t *testing.T) {
	srv, _, _ := startServer(t, Config{Policy: sched.FIFO{}}, 4)
	huge := []JobRequest{{Origin: "CLEAN", LengthHours: 1, SlackHours: math.MaxInt}}
	rr := postRaw(t, srv, "/v1/jobs", "application/json", []byte(fmt.Sprintf(
		`{"jobs":[{"origin":"CLEAN","length_hours":1,"slack_hours":%d}]}`, math.MaxInt)))
	if rr.Code != http.StatusBadRequest || !strings.Contains(rr.Body.String(), "deadline past") {
		t.Errorf("JSON: status %d (%s), want 400", rr.Code, rr.Body.String())
	}
	rr = postRaw(t, srv, "/v1/jobs/batch", BinaryContentType, AppendBinarySubmit(nil, huge))
	if rr.Code != http.StatusBadRequest || !strings.Contains(rr.Body.String(), "deadline past") {
		t.Errorf("binary: status %d (%s), want 400", rr.Code, rr.Body.String())
	}
	if got := srv.fleet.Jobs(); got != 0 {
		t.Fatalf("%d jobs admitted", got)
	}
	huge[0].SlackHours = math.MaxInt32 - 1 - srv.fleet.Hour()
	if rr := postRaw(t, srv, "/v1/jobs/batch", BinaryContentType, AppendBinarySubmit(nil, huge)); rr.Code != http.StatusOK {
		t.Errorf("largest legal slack: status %d (%s)", rr.Code, rr.Body.String())
	}
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

// TestBinarySubmitFollowerRedirect: the binary route honors the 421
// write-redirect contract like the JSON route.
func TestBinarySubmitFollowerRedirect(t *testing.T) {
	srv := world{policy: sched.FIFO{}, horizon: 48, slots: 2}.follower(t, "http://127.0.0.1:9", "", FollowerConfig{})
	defer srv.Close()
	frame := AppendBinarySubmit(nil, []JobRequest{{Origin: "CLEAN", LengthHours: 1}})
	rr := postRaw(t, srv, "/v1/jobs/batch", BinaryContentType, frame)
	if rr.Code != http.StatusMisdirectedRequest {
		t.Fatalf("follower binary submit: status %d, want 421 (%s)", rr.Code, rr.Body.String())
	}
	if !strings.Contains(rr.Body.String(), "primary") {
		t.Fatalf("421 body %q has no primary hint", rr.Body.String())
	}
}

// TestBinaryDecoderInterning: decoding a frame with known origins
// reuses the cluster table's strings.
func TestBinaryDecoderInterning(t *testing.T) {
	srv, _, _ := startServer(t, Config{Policy: sched.FIFO{}}, 4)
	frame := AppendBinarySubmit(nil, []JobRequest{{Origin: "CLEAN", LengthHours: 1}})
	b := &batch{}
	if err := readBinaryFrame(bytes.NewReader(frame), binReqMagic, b); err != nil {
		t.Fatal(err)
	}
	if err := decodeBinaryJobs(b, srv.internOrigin, srv.internTenant); err != nil {
		t.Fatal(err)
	}
	if got, want := b.jobs[0].Origin, srv.origins["CLEAN"]; got != want {
		t.Fatalf("origin %q not interned", got)
	}
}
