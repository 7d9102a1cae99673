package httpx

// The one-attempt contract of Do — the round trip every client and the
// failover rotation are built on. Do makes exactly one attempt and
// reports what happened: a 421 is an answer (its primary hint is not
// followed), a 5xx on a read is an answer (nothing rotates), a refused
// connection is the dial error itself, a response past MaxBody is the
// explicit "exceeds" error, and the caller's trace context — and only
// that — is stamped on the request.

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"carbonshift/internal/tracing"
)

// countingTransport counts attempts, including the ones that never
// reach a server.
type countingTransport struct{ attempts atomic.Int32 }

func (c *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	c.attempts.Add(1)
	return http.DefaultTransport.RoundTrip(r)
}

func TestDoOneAttempt(t *testing.T) {
	var elsewhere atomic.Int32 // hits on the server a 421 hint names
	hinted := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		elsewhere.Add(1)
		WriteJSON(w, http.StatusOK, echo{Name: "hinted primary"})
	}))
	defer hinted.Close()

	tracedCtx, sc := tracedContext(t)
	for _, tc := range []struct {
		name    string
		ctx     context.Context
		method  string
		handler http.HandlerFunc // nil = the server is closed before the call
		check   func(t *testing.T, resp *Response, err error, traceparent string)
	}{
		{"421 with a primary hint is surfaced, not followed", context.Background(), http.MethodPost,
			func(w http.ResponseWriter, r *http.Request) {
				WriteJSON(w, http.StatusMisdirectedRequest, map[string]string{"error": "follower", "primary": hinted.URL})
			},
			func(t *testing.T, resp *Response, err error, _ string) {
				if err != nil {
					t.Fatalf("421 is an answer, got error %v", err)
				}
				var out echo
				if got := StatusCodeOf(resp.Decode("test", &out)); got != http.StatusMisdirectedRequest {
					t.Fatalf("StatusCodeOf(Decode) = %d, want 421", got)
				}
				if n := elsewhere.Load(); n != 0 {
					t.Fatalf("the hinted primary was contacted %d times; Do must not follow hints", n)
				}
			}},
		{"500 on GET is surfaced, not retried", context.Background(), http.MethodGet,
			func(w http.ResponseWriter, r *http.Request) {
				WriteJSON(w, http.StatusInternalServerError, map[string]string{"error": "boom"})
			},
			func(t *testing.T, resp *Response, err error, _ string) {
				if err != nil || resp.StatusCode != http.StatusInternalServerError || resp.Status != "500 Internal Server Error" {
					t.Fatalf("resp = %+v, err = %v, want the 500 as a Response", resp, err)
				}
				if err := resp.Decode("test", nil); err == nil || !strings.Contains(err.Error(), "test: 500 Internal Server Error: boom") {
					t.Fatalf("Decode = %v, want the server's error body", err)
				}
			}},
		{"refused connection is the dial error", context.Background(), http.MethodGet, nil,
			func(t *testing.T, resp *Response, err error, _ string) {
				if resp != nil || !isDialError(err) {
					t.Fatalf("resp = %+v, err = %v, want a wrapped dial error", resp, err)
				}
				if !strings.HasPrefix(err.Error(), "test: ") {
					t.Fatalf("error %q lost the caller's prefix", err)
				}
			}},
		{"a body of MaxBody+1 is the explicit exceeds error", context.Background(), http.MethodGet,
			func(w http.ResponseWriter, r *http.Request) {
				w.Write(make([]byte, MaxBody+1))
			},
			func(t *testing.T, resp *Response, err error, _ string) {
				if resp != nil || !errors.Is(err, errTooLarge) || !strings.Contains(err.Error(), "test: response exceeds the") {
					t.Fatalf("resp = %v, err = %v, want the response-exceeds error", resp != nil, err)
				}
			}},
		{"a body of exactly MaxBody is read whole", context.Background(), http.MethodGet,
			func(w http.ResponseWriter, r *http.Request) {
				w.Write(make([]byte, MaxBody))
			},
			func(t *testing.T, resp *Response, err error, _ string) {
				if err != nil || len(resp.Body) != MaxBody {
					t.Fatalf("err = %v, want all MaxBody bytes", err)
				}
			}},
		{"traced context stamps the caller's trace ID", tracedCtx, http.MethodPost,
			func(w http.ResponseWriter, r *http.Request) { WriteJSON(w, http.StatusOK, echo{Name: "ok"}) },
			func(t *testing.T, resp *Response, err error, traceparent string) {
				got, ok := tracing.ParseTraceparent(traceparent)
				if err != nil || !ok || got.TraceID != sc.TraceID || !got.Sampled {
					t.Fatalf("err = %v, traceparent %q, want sampled trace %s", err, traceparent, sc.TraceID)
				}
			}},
		{"untraced context adds no header", context.Background(), http.MethodPost,
			func(w http.ResponseWriter, r *http.Request) { WriteJSON(w, http.StatusOK, echo{Name: "ok"}) },
			func(t *testing.T, resp *Response, err error, traceparent string) {
				if err != nil || traceparent != "" {
					t.Fatalf("err = %v, traceparent %q, want none", err, traceparent)
				}
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var hits atomic.Int32
			var traceparent atomic.Value
			traceparent.Store("")
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				hits.Add(1)
				traceparent.Store(r.Header.Get(tracing.Header))
				tc.handler(w, r)
			}))
			defer ts.Close()
			wantHits := int32(1)
			if tc.handler == nil {
				ts.Close() // refused from now on
				wantHits = 0
			}
			ct := &countingTransport{}
			resp, err := Do(tc.ctx, &http.Client{Transport: ct}, tc.method, ts.URL+"/x", "", nil, "test")
			tc.check(t, resp, err, traceparent.Load().(string))
			if a, h := ct.attempts.Load(), hits.Load(); a != 1 || h != wantHits {
				t.Fatalf("%d attempts, %d server hits; want exactly 1 attempt and %d hits", a, h, wantHits)
			}
		})
	}
}

// TestReadExhaustedOn5xxKeepsStatus: a read that draws 5xx from every
// endpoint gives up with an error that still carries that status, so a
// caller can tell "the service answered, badly" from "nothing answered".
func TestReadExhaustedOn5xxKeepsStatus(t *testing.T) {
	broken := jsonServer(t, "broken", func() int { return http.StatusBadGateway }, nil)
	e, err := NewEndpoints([]string{broken.URL})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := e.Do(context.Background(), nil, http.MethodGet, "/x", "", nil, "test")
	if resp != nil || err == nil || !strings.Contains(err.Error(), "all endpoints failed") {
		t.Fatalf("resp = %+v, err = %v, want the rotation to give up", resp, err)
	}
	if got := StatusCodeOf(err); got != http.StatusBadGateway {
		t.Fatalf("StatusCodeOf = %d (%v), want 502", got, err)
	}
}
