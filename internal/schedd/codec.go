package schedd

// The two submit protocols, each described once as a Wire value. Every
// layer that handles a submission — Server.serveSubmit, Client.submit,
// internal/gateway's proxy and split paths — takes the Wire the request
// arrived on and calls through it, so JSON and binary traffic share one
// pipeline and can differ only in the codecs listed here. This file
// also holds the JSON codecs and the pooled batch both routes decode
// into; the binary frame codecs are in binary.go.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"

	"carbonshift/internal/sched"
)

// Wire is one submit protocol. There are exactly two, JSONWire and
// BinaryWire; the route a request arrives on, or the client method
// called, chooses between them.
type Wire struct {
	// Route is the submit path; the mux pattern is "POST " + Route.
	Route string
	// ContentType is the media type of a request and of its 200 ack.
	// Every other response is the shared JSON {"error": ...} shape.
	ContentType string
	// StrictType makes a request with any other Content-Type a 415.
	StrictType bool
	// Proto is the schedd_submit_requests_total label value.
	Proto string

	// AppendSubmit appends the request encoding of a batch; DecodeSubmit
	// parses one with exactly the server's validation (empty batches and
	// trailing data rejected).
	AppendSubmit func(buf []byte, jobs []JobRequest) ([]byte, error)
	DecodeSubmit func(r io.Reader) ([]JobRequest, error)
	// AppendAck appends the 200 body for an admitted batch; DecodeAck
	// parses it.
	AppendAck func(buf []byte, arrival int, ids []int) []byte
	DecodeAck func(data []byte) (SubmitResponse, error)

	// decode is the server's DecodeSubmit: into pooled scratch, strings
	// interned against s.
	decode func(s *Server, r io.Reader, b *batch) error
}

// JSONWire is POST /v1/jobs: a bare JobRequest or {"jobs": [...]}.
var JSONWire = &Wire{
	Route:        "/v1/jobs",
	ContentType:  "application/json",
	Proto:        "json",
	AppendSubmit: appendJSONSubmit,
	DecodeSubmit: DecodeSubmit,
	AppendAck:    appendJSONAck,
	DecodeAck:    decodeJSONAck,
	decode:       (*Server).decodeJSON,
}

// BinaryWire is POST /v1/jobs/batch: the CRC-framed protocol of
// binary.go.
var BinaryWire = &Wire{
	Route:        "/v1/jobs/batch",
	ContentType:  BinaryContentType,
	StrictType:   true,
	Proto:        "binary",
	AppendSubmit: appendBinarySubmitChecked,
	DecodeSubmit: DecodeBinarySubmit,
	AppendAck:    AppendBinaryAck,
	DecodeAck:    DecodeBinaryAck,
	decode:       (*Server).decodeBinary,
}

// Wires lists both protocols, for the code that registers a route or a
// metric series per protocol.
var Wires = []*Wire{JSONWire, BinaryWire}

// RejectType answers 415 when the wire is strict about its media type
// and the request carries another, and reports whether it did. It reads
// nothing of the body, so the server and the gateway both run it first.
func (wire *Wire) RejectType(w http.ResponseWriter, r *http.Request) bool {
	ct := r.Header.Get("Content-Type")
	if !wire.StrictType || ct == wire.ContentType {
		return false
	}
	writeJSON(w, http.StatusUnsupportedMediaType,
		ErrorResponse{Error: fmt.Sprintf("content type %q; want %s", ct, wire.ContentType)})
	return true
}

// WriteAck writes the 200 response for an admitted batch, encoding
// through buf, and returns the grown buffer for reuse.
func (wire *Wire) WriteAck(w http.ResponseWriter, buf []byte, arrival int, ids []int) []byte {
	buf = wire.AppendAck(buf, arrival, ids)
	w.Header().Set("Content-Type", wire.ContentType)
	w.WriteHeader(http.StatusOK)
	w.Write(buf)
	return buf
}

// batch is the pooled per-request scratch of the submit path: the
// decoded jobs (either protocol), the ids admit assigns, and the ack
// buffer all live for exactly one request and are recycled. payload
// and ver hold the binary frame being decoded.
type batch struct {
	payload []byte
	ver     byte // frame version readBinaryFrame accepted
	jobs    []sched.Job
	auto    []bool // jobs[i] carries no id; admit assigns one
	ids     []int
	ack     []byte
}

var batchPool = sync.Pool{New: func() any { return new(batch) }}

// putBatch recycles the scratch unless an outlier request grew it past
// what steady-state traffic needs — pooling a one-off huge buffer
// would pin it for the server's lifetime.
func putBatch(b *batch) {
	const maxPooledBytes = 1 << 20
	const maxPooledJobs = 1 << 14
	if cap(b.payload) > maxPooledBytes || cap(b.ack) > maxPooledBytes || cap(b.jobs) > maxPooledJobs {
		return
	}
	batchPool.Put(b)
}

// grow sizes the decoded-batch slices for n jobs.
func (b *batch) grow(n int) {
	if cap(b.jobs) < n {
		b.jobs = make([]sched.Job, n)
		b.auto = make([]bool, n)
		b.ids = make([]int, n)
	}
	b.jobs, b.auto, b.ids = b.jobs[:n], b.auto[:n], b.ids[:n]
}

// DecodeSubmit parses the POST /v1/jobs payload — a bare JobRequest or
// {"jobs": [...]} — into the job batch to admit. It is the fuzzed
// entry point of the request-parsing path. An explicit empty batch
// ({"jobs": []}) is rejected rather than misread as a bare zero-valued
// job, and so is any non-whitespace data trailing the JSON value —
// json.Decoder stops at the first value, which would otherwise
// silently accept concatenated or garbage-suffixed bodies.
func DecodeSubmit(r io.Reader) ([]JobRequest, error) {
	dec := json.NewDecoder(r)
	var req SubmitRequest
	if err := dec.Decode(&req); err != nil {
		return nil, fmt.Errorf("bad request body: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		if err == nil {
			return nil, errors.New("bad request body: trailing data after JSON value")
		}
		return nil, fmt.Errorf("bad request body: trailing data: %w", err)
	}
	if req.Jobs != nil {
		if len(req.Jobs) == 0 {
			return nil, errors.New("bad request body: empty job batch")
		}
		return req.Jobs, nil
	}
	return []JobRequest{req.JobRequest}, nil
}

// decodeJSON is JSONWire's server-side decode.
func (s *Server) decodeJSON(r io.Reader, b *batch) error {
	reqs, err := DecodeSubmit(r)
	if err != nil {
		return err
	}
	b.grow(len(reqs))
	for i := range reqs {
		jr := &reqs[i]
		b.jobs[i] = sched.Job{
			Origin:        jr.Origin,
			Tenant:        jr.Tenant,
			Length:        jr.LengthHours,
			Slack:         jr.SlackHours,
			Interruptible: jr.Interruptible,
			Migratable:    jr.Migratable,
		}
		b.auto[i] = jr.ID == nil
		if jr.ID != nil {
			b.jobs[i].ID = *jr.ID
		}
	}
	return nil
}

// appendJSONSubmit encodes one job as a bare object and several as
// {"jobs": [...]}.
func appendJSONSubmit(buf []byte, jobs []JobRequest) ([]byte, error) {
	var payload any = SubmitRequest{Jobs: jobs}
	if len(jobs) == 1 {
		payload = jobs[0]
	}
	out, err := json.Marshal(payload)
	if err != nil {
		return nil, fmt.Errorf("encoding request: %w", err)
	}
	if len(buf) == 0 {
		return out, nil // nothing to append to: spare the client a copy per request
	}
	return append(buf, out...), nil
}

// appendJSONAck encodes a SubmitResponse the way httpx.WriteJSON would:
// one JSON value and a newline. Marshal cannot fail on ints.
func appendJSONAck(buf []byte, arrival int, ids []int) []byte {
	out, _ := json.Marshal(SubmitResponse{IDs: ids, ArrivalHour: arrival, Accepted: len(ids)})
	return append(append(buf, out...), '\n')
}

func decodeJSONAck(data []byte) (SubmitResponse, error) {
	var resp SubmitResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		return SubmitResponse{}, fmt.Errorf("decoding response: %w", err)
	}
	return resp, nil
}

// DecodeBinarySubmit parses a POST /v1/jobs/batch binary frame into
// the protocol-independent batch form. Jobs without an explicit id
// come back with a nil ID, mirroring the JSON shape.
func DecodeBinarySubmit(r io.Reader) ([]JobRequest, error) {
	b := &batch{}
	if err := readBinaryFrame(r, binReqMagic, b); err != nil {
		return nil, err
	}
	intern := func(p []byte) string { return string(p) }
	if err := decodeBinaryJobs(b, intern, intern); err != nil {
		return nil, err
	}
	out := make([]JobRequest, len(b.jobs))
	for i := range b.jobs {
		j := &b.jobs[i]
		out[i] = JobRequest{
			Origin:        j.Origin,
			Tenant:        j.Tenant,
			LengthHours:   j.Length,
			SlackHours:    j.Slack,
			Interruptible: j.Interruptible,
			Migratable:    j.Migratable,
		}
		if !b.auto[i] {
			id := j.ID
			out[i].ID = &id
		}
	}
	return out, nil
}
