package schedd

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"carbonshift/internal/sched"
	"carbonshift/internal/tenant"
)

// FuzzDecodeSubmit fuzzes the POST /v1/jobs request-parsing path, both
// at the decode layer (JSONWire.DecodeSubmit must never panic and must
// either error or yield a non-empty batch) and end to end through the handler
// (arbitrary bodies must map to a well-formed JSON response with a
// sane status — 200 for admitted work, 400 for garbage, 503 for
// backpressure — never a 500, never a panic).
func FuzzDecodeSubmit(f *testing.F) {
	f.Add([]byte(`{"origin":"DIRTY","length_hours":3,"slack_hours":24}`))
	f.Add([]byte(`{"id":7,"origin":"CLEAN","length_hours":1,"interruptible":true}`))
	f.Add([]byte(`{"jobs":[{"origin":"CLEAN","length_hours":2},{"origin":"DIRTY","length_hours":1,"migratable":true}]}`))
	f.Add([]byte(`{"jobs":[]}`))
	f.Add([]byte(`{not json`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{"id":null,"origin":"","length_hours":-4}`))
	f.Add([]byte(`{"jobs":[{"id":2147483647,"origin":"CLEAN","length_hours":9999999}]}`))
	f.Add([]byte(`{"origin":"CLEAN","length_hours":1} trailing garbage`))
	f.Add([]byte(`{"origin":"CLEAN","length_hours":1}{"origin":"DIRTY","length_hours":2}`))
	f.Add([]byte(`{"origin":"CLEAN","length_hours":1}   `))
	// Tenant-tagged submissions: valid names, the quota-limited tenant
	// (429 path), hostile names the validator must 400, and shape
	// confusion between the tenant field and the batch wrapper.
	f.Add([]byte(`{"origin":"CLEAN","tenant":"web","length_hours":1}`))
	f.Add([]byte(`{"jobs":[{"origin":"CLEAN","tenant":"quotal","length_hours":1},{"origin":"DIRTY","tenant":"quotal","length_hours":1}]}`))
	f.Add([]byte(`{"origin":"CLEAN","tenant":"../../etc/passwd","length_hours":1}`))
	f.Add([]byte(`{"origin":"CLEAN","tenant":"a\nb","length_hours":1}`))
	f.Add([]byte(`{"origin":"CLEAN","tenant":{"name":"web"},"length_hours":1}`))

	srv, err := New(mkSet(f, 48), clusters(4),
		Config{Policy: sched.FIFO{}, Shards: 2, MaxQueue: 1 << 20, Tenants: fuzzTenants(f)},
		WithClock(func() time.Time { return t0 }))
	if err != nil {
		f.Fatal(err)
	}
	handler := srv.Handler()

	f.Fuzz(func(t *testing.T, data []byte) {
		jobs, err := JSONWire.DecodeSubmit(bytes.NewReader(data))
		if err == nil && len(jobs) == 0 {
			t.Fatal("DecodeSubmit returned no error and no jobs")
		}

		req := httptest.NewRequest(http.MethodPost, JSONWire.Route, bytes.NewReader(data))
		rr := httptest.NewRecorder()
		handler.ServeHTTP(rr, req)
		switch rr.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusRequestEntityTooLarge,
			http.StatusServiceUnavailable, http.StatusTooManyRequests:
		default:
			t.Fatalf("body %q: unexpected status %d (%s)", data, rr.Code, rr.Body.String())
		}
		if !json.Valid(rr.Body.Bytes()) {
			t.Fatalf("body %q: non-JSON response %q", data, rr.Body.String())
		}
		if rr.Code == http.StatusOK {
			ack, err := JSONWire.DecodeAck(rr.Body.Bytes())
			if err != nil {
				t.Fatalf("body %q: bad ack: %v", data, err)
			}
			if ack.Accepted != len(ack.IDs) || ack.Accepted == 0 {
				t.Fatalf("body %q: inconsistent ack %+v", data, ack)
			}
		}
	})
}

// FuzzDecodeBinarySubmit is FuzzDecodeSubmit's twin for the binary
// batch protocol: hostile frames must never panic, the decoder must
// either error or yield a non-empty batch, and the handler must map
// every body to a sane status with a decodable response.
func FuzzDecodeBinarySubmit(f *testing.F) {
	f.Add(AppendBinarySubmit(nil, []JobRequest{{Origin: "CLEAN", LengthHours: 1}}))
	three := 3
	f.Add(AppendBinarySubmit(nil, []JobRequest{
		{ID: &three, Origin: "DIRTY", LengthHours: 2, SlackHours: 24, Interruptible: true},
		{Origin: "CLEAN", LengthHours: 1, Migratable: true},
	}))
	empty := appendBinaryFrame(nil, binReqMagic, binVersion, func(buf []byte) []byte {
		return binary.AppendUvarint(buf, 0)
	})
	f.Add(empty)
	valid := AppendBinarySubmit(nil, []JobRequest{{Origin: "CLEAN", LengthHours: 1}})
	f.Add(valid[:len(valid)-3])                        // truncated payload
	f.Add(append(valid[:0:0], append(valid, 0xff)...)) // trailing byte
	corrupt := append(valid[:0:0], valid...)
	corrupt[len(corrupt)-1] ^= 0x01 // CRC mismatch
	f.Add(corrupt)
	f.Add([]byte("CSBB"))             // bare magic
	f.Add([]byte("CSWL\x01whatever")) // foreign magic
	hugeCount := appendBinaryFrame(nil, binReqMagic, binVersion, func(buf []byte) []byte {
		return binary.AppendUvarint(buf, 1<<40)
	})
	f.Add(hugeCount)
	f.Add([]byte{})
	// Version-2 tenant frames: a tagged batch, the quota-limited tenant,
	// a v2 frame whose tenant trailer is truncated, and the tenant flag
	// smuggled into a v1 frame (unknown flag there).
	tagged := AppendBinarySubmit(nil, []JobRequest{
		{Origin: "CLEAN", Tenant: "web", LengthHours: 1},
		{Origin: "DIRTY", LengthHours: 2, SlackHours: 6},
	})
	f.Add(tagged)
	f.Add(AppendBinarySubmit(nil, []JobRequest{{Origin: "CLEAN", Tenant: "quotal", LengthHours: 1}}))
	f.Add(AppendBinarySubmit(nil, []JobRequest{{Origin: "CLEAN", Tenant: "nobody-configured", LengthHours: 1}}))
	f.Add(tagged[:len(tagged)-2]) // truncated inside the tenant trailer
	flagInV1 := appendBinaryFrame(nil, binReqMagic, binVersion, func(buf []byte) []byte {
		buf = binary.AppendUvarint(buf, 1)
		buf = append(buf, binFlagHasTenant)
		buf = binary.AppendUvarint(buf, 5)
		buf = append(buf, "CLEAN"...)
		buf = binary.AppendUvarint(buf, 1)
		buf = binary.AppendUvarint(buf, 0)
		return buf
	})
	f.Add(flagInV1)

	srv, err := New(mkSet(f, 48), clusters(4),
		Config{Policy: sched.FIFO{}, Shards: 2, MaxQueue: 1 << 20, Tenants: fuzzTenants(f)},
		WithClock(func() time.Time { return t0 }))
	if err != nil {
		f.Fatal(err)
	}
	handler := srv.Handler()

	f.Fuzz(func(t *testing.T, data []byte) {
		b := &batch{}
		if err := BinaryWire.decode(srv, bytes.NewReader(data), b); err == nil && len(b.jobs) == 0 {
			t.Fatal("binary decode returned no error and no jobs")
		}

		req := httptest.NewRequest(http.MethodPost, BinaryWire.Route, bytes.NewReader(data))
		req.Header.Set("Content-Type", BinaryWire.ContentType)
		rr := httptest.NewRecorder()
		handler.ServeHTTP(rr, req)
		switch rr.Code {
		case http.StatusOK:
			ack, err := BinaryWire.DecodeAck(rr.Body.Bytes())
			if err != nil {
				t.Fatalf("frame %q: bad binary ack: %v", data, err)
			}
			if ack.Accepted != len(ack.IDs) || ack.Accepted == 0 {
				t.Fatalf("frame %q: inconsistent ack %+v", data, ack)
			}
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge,
			http.StatusServiceUnavailable, http.StatusTooManyRequests:
			if !json.Valid(rr.Body.Bytes()) {
				t.Fatalf("frame %q: non-JSON error body %q", data, rr.Body.String())
			}
		default:
			t.Fatalf("frame %q: unexpected status %d (%s)", data, rr.Code, rr.Body.String())
		}
	})
}

// fuzzTenants is the tenant world the submit fuzzers run under: a
// weighted interactive tenant, a tightly quota-limited one (so fuzzed
// traffic actually exercises the 429 path), a scavenger, and the
// catch-all for arbitrary fuzzer-invented names.
func fuzzTenants(f *testing.F) *tenant.Config {
	cfg, err := tenant.NewConfig([]tenant.Spec{
		{Name: "web", Class: tenant.Interactive, Weight: 2},
		{Name: "quotal", QuotaJobsPerHour: 1},
		{Name: "spot", Class: tenant.Scavenger},
		{Name: "*"},
	})
	if err != nil {
		f.Fatal(err)
	}
	return cfg
}
