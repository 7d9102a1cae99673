// Package httpx holds the JSON-over-HTTP plumbing shared by the
// repository's services (internal/carbonapi, internal/schedd) and
// their typed clients, so response encoding, error-body mapping, and
// read limits stay identical across them.
package httpx

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"carbonshift/internal/tracing"
)

// MaxBody bounds how much of any response or request body is read.
const MaxBody = 16 << 20

// errorBody is the shared {"error": ...} wire shape every service uses
// for non-200 responses. Backpressure rejections also carry the
// Retry-After hint in-body, so it survives any proxy or client hop
// that only preserves the JSON shape.
type errorBody struct {
	Error      string `json:"error"`
	RetryAfter int    `json:"retry_after,omitempty"`
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
		errorBody{Error: fmt.Sprintf("request body exceeds the %d-byte limit", MaxBody)})
}

// DoJSON issues req, decodes a 200 response into out, and maps any
// other status to an error — using the server's {"error": ...} body
// when one is present. Every error is prefixed with prefix (the client
// package's name).
func DoJSON(hc *http.Client, req *http.Request, prefix string, out any) error {
	return DoRaw(hc, req, prefix, func(statusCode int, status string, body []byte) error {
		return DecodeResponse(statusCode, status, body, prefix, out)
	})
}

// DoRaw issues req, reads the bounded response body, and hands status
// plus body to decode — the non-JSON core of DoJSON, used by clients
// whose 200 responses are binary (schedd's batch-submit ack) while
// errors stay on the shared {"error": ...} shape.
func DoRaw(hc *http.Client, req *http.Request, prefix string, decode func(statusCode int, status string, body []byte) error) error {
	injectTrace(req)
	resp, err := hc.Do(req)
	if err != nil {
		return fmt.Errorf("%s: %w", prefix, err)
	}
	defer resp.Body.Close()
	body, err := readBody(resp.Body, prefix)
	if err != nil {
		return err
	}
	return decode(resp.StatusCode, resp.Status, body)
}

// readBody reads a response body up to MaxBody. A body that would
// exceed the limit is an explicit error — truncating it and letting
// the JSON decoder fail on the cut would misreport an oversized
// response as a parse error.
func readBody(r io.Reader, prefix string) ([]byte, error) {
	body, err := io.ReadAll(io.LimitReader(r, MaxBody+1))
	if err != nil {
		return nil, fmt.Errorf("%s: reading response: %w", prefix, err)
	}
	if len(body) > MaxBody {
		return nil, fmt.Errorf("%s: response exceeds the %d-byte limit", prefix, MaxBody)
	}
	return body, nil
}

// injectTrace stamps the request context's span context into the
// traceparent header, so a trace started by the caller (the serve
// middleware, or cmd/loadgen's client-side tracer) continues into the
// server. Untraced contexts leave the request untouched.
func injectTrace(req *http.Request) {
	if sc := tracing.FromContext(req.Context()); sc.Valid() {
		req.Header.Set(tracing.Header, sc.Traceparent())
	}
}

// DecodeResponse maps one already-read response to the typed result:
// a 200 body is decoded into out, any other status becomes an error
// carrying the server's {"error": ...} message when the body holds
// one. It is the pure core of DoJSON, separated so the error-mapping
// path can be exercised (and fuzzed) without a live connection.
func DecodeResponse(statusCode int, status string, body []byte, prefix string, out any) error {
	if statusCode != http.StatusOK {
		var apiErr errorBody
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
