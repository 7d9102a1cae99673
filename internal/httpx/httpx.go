// Package httpx holds the HTTP plumbing shared by the repository's
// services (internal/schedd, internal/gateway) and their clients, so
// response encoding, error-body mapping, read limits and trace
// propagation stay identical across them:
//
//   - response writing: WriteJSON, WriteTooLarge, the {"error": ...}
//     shape ErrorBody with its writer Respond, and its typed
//     client-side form, StatusError;
//   - the one upstream round trip, Do: every non-streaming request any
//     client in this repository sends is built, trace-stamped, sent once
//     and read back under MaxBody there, and comes back as a Response;
//   - the failover policy around it, Endpoints (failover.go): a loop of
//     Do calls that decides which endpoint is next and whether a failed
//     attempt may be repeated.
//
// Two transfers deliberately stay outside Do, both sent by internal/repl's
// one request, Tail.get: the replication stream (long-lived and framed —
// it is consumed as it arrives, never read to its end) and the snapshot
// bootstrap (needs a response header and a 1 GiB bound, not MaxBody). Do
// takes no body-limit parameter to accommodate them.
package httpx

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"carbonshift/internal/tracing"
)

// MaxBody bounds how much of any response or request body is read.
const MaxBody = 16 << 20

// ErrorBody is the shared {"error": ...} wire shape every service uses
// for non-200 responses. Primary carries a follower's write-redirect
// hint on a 421 (failover.go). RetryAfter is a backpressure rejection's
// hint in seconds: Respond also sends it as the Retry-After header, and
// in-body it survives any proxy or client hop that only preserves the
// JSON shape.
type ErrorBody struct {
	Error      string `json:"error"`
	Primary    string `json:"primary,omitempty"`
	RetryAfter int    `json:"retry_after,omitempty"`
}

// Respond writes b as the response with the given status, stamping the
// Retry-After header when b carries a hint.
func (b ErrorBody) Respond(w http.ResponseWriter, status int) {
	if b.RetryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(b.RetryAfter))
	}
	WriteJSON(w, status, b)
}

// StatusError is the typed form of every non-200 response error
// DecodeResponse produces: the HTTP status code plus the message that
// was already being rendered. Error() strings are unchanged from the
// untyped era; callers that need to branch on the code — a load
// generator telling quota 429s from capacity 503s, a client deciding
// whether to retry — unwrap with errors.As.
type StatusError struct {
	// StatusCode is the HTTP status code (e.g. 429, 503).
	StatusCode int
	// Message is the fully formatted error text.
	Message string
	// RetryAfter is the server's backpressure hint in seconds (the
	// Retry-After header / retry_after body field), 0 when absent.
	RetryAfter int
}

func (e *StatusError) Error() string { return e.Message }

// StatusCodeOf returns the HTTP status code carried by err (directly
// or wrapped), or 0 when err has none.
func StatusCodeOf(err error) int {
	var se *StatusError
	if errors.As(err, &se) {
		return se.StatusCode
	}
	return 0
}

// RetryAfterOf returns the Retry-After hint in seconds carried by err
// (directly or wrapped), or 0 when err has none.
func RetryAfterOf(err error) int {
	var se *StatusError
	if errors.As(err, &se) {
		return se.RetryAfter
	}
	return 0
}

// WriteJSON writes v as the JSON response body with the given status.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// Encoding failures past the header are unrecoverable mid-stream;
	// the connection-level error is all the client can see anyway.
	_ = json.NewEncoder(w).Encode(v)
}

// WriteTooLarge answers a request whose body ran past MaxBody: the one
// 413 every service sends, so oversize reads the same at a partition
// and at the gateway in front of it.
func WriteTooLarge(w http.ResponseWriter) {
	WriteJSON(w, http.StatusRequestEntityTooLarge,
		ErrorBody{Error: fmt.Sprintf("request body exceeds the %d-byte limit", MaxBody)})
}

// Response is one upstream answer, read to its end under MaxBody.
type Response struct {
	StatusCode int
	Status     string // e.g. "503 Service Unavailable"
	Body       []byte
}

// Decode maps the response to the typed result the way DecodeResponse
// does: a 200 body is decoded into out, any other status becomes a
// *StatusError.
func (r *Response) Decode(prefix string, out any) error {
	return DecodeResponse(r.StatusCode, r.Status, r.Body, prefix, out)
}

// errTooLarge marks a response that ran past MaxBody. It is a sentinel
// so the failover rotation can tell it from a transport failure: every
// replica would answer the same way, so it gives up instead of retrying.
var errTooLarge = fmt.Errorf("response exceeds the %d-byte limit", MaxBody)

// Do is the one upstream round trip: it builds the request (payload is
// sent verbatim with contentType; nil = no body), stamps it with ctx's
// trace context, sends it exactly once on hc (nil = http.DefaultClient),
// and reads the whole response under MaxBody. Any status is an answer,
// returned as a Response for the caller to switch on or Decode — Do
// follows no 421 hint and retries nothing; that policy is Endpoints.Do's.
// Every error is prefixed with prefix (the client package's name).
//
// A body past MaxBody is an explicit error — truncating it and letting a
// decoder fail on the cut would misreport an oversized response as a
// parse error.
func Do(ctx context.Context, hc *http.Client, method, url, contentType string, payload []byte, prefix string) (*Response, error) {
	if hc == nil {
		hc = http.DefaultClient
	}
	var reqBody io.Reader
	if payload != nil {
		reqBody = bytes.NewReader(payload)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, reqBody)
	if err != nil {
		return nil, fmt.Errorf("%s: building request: %w", prefix, err)
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	// A trace started by the caller (the serve middleware, or
	// cmd/loadgen's client-side tracer) continues into the server;
	// untraced contexts leave the request untouched.
	if sc := tracing.FromContext(ctx); sc.Valid() {
		req.Header.Set(tracing.Header, sc.Traceparent())
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", prefix, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, MaxBody+1))
	if len(body) > MaxBody {
		return nil, fmt.Errorf("%s: %w", prefix, errTooLarge)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: reading response: %w", prefix, err)
	}
	return &Response{StatusCode: resp.StatusCode, Status: resp.Status, Body: body}, nil
}

// DecodeResponse maps one already-read response to the typed result:
// a 200 body is decoded into out, any other status becomes an error
// carrying the server's {"error": ...} message when the body holds
// one. It is the pure core of Response.Decode, separated so the
// error-mapping path can be exercised (and fuzzed) without a live
// connection.
func DecodeResponse(statusCode int, status string, body []byte, prefix string, out any) error {
	if statusCode != http.StatusOK {
		var apiErr ErrorBody
		if json.Unmarshal(body, &apiErr) == nil && apiErr.Error != "" {
			return &StatusError{
				StatusCode: statusCode,
				Message:    fmt.Sprintf("%s: %s: %s", prefix, status, apiErr.Error),
				RetryAfter: apiErr.RetryAfter,
			}
		}
		return &StatusError{StatusCode: statusCode, Message: fmt.Sprintf("%s: unexpected status %s", prefix, status)}
	}
	if err := json.Unmarshal(body, out); err != nil {
		return fmt.Errorf("%s: decoding response: %w", prefix, err)
	}
	return nil
}
