package httpx

// Satellite coverage: trace-context propagation through the failover
// client. The invariant under test — a 421 primary redirect and a
// safe replay after a dial error are RETRIES of the same logical
// request, so every attempt must carry the original trace ID from the
// caller's context, never mint a new one.

import (
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"

	"carbonshift/internal/tracing"
)

func tracedContext(t *testing.T) (context.Context, tracing.SpanContext) {
	t.Helper()
	tr := tracing.New(tracing.Config{SampleEvery: 1})
	ctx, _ := tr.StartRoot(context.Background(), "client")
	sc := tracing.FromContext(ctx)
	if !sc.Valid() || !sc.Sampled {
		t.Fatalf("root context not sampled: %+v", sc)
	}
	return ctx, sc
}

func TestTraceSurvives421Redirect(t *testing.T) {
	var primarySeen []string
	primary := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		primarySeen = append(primarySeen, r.Header.Get(tracing.Header))
		WriteJSON(w, http.StatusOK, map[string]int{"accepted": 1})
	}))
	defer primary.Close()

	var replicaSeen []string
	replica := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		replicaSeen = append(replicaSeen, r.Header.Get(tracing.Header))
		WriteJSON(w, http.StatusMisdirectedRequest,
			map[string]string{"error": "read-only follower", "primary": primary.URL})
	}))
	defer replica.Close()

	eps, err := NewEndpoints([]string{replica.URL})
	if err != nil {
		t.Fatal(err)
	}
	ctx, sc := tracedContext(t)
	var out map[string]int
	if err := doJSON(eps, ctx, nil, http.MethodPost, "/v1/jobs", map[string]int{"n": 1}, "test", &out); err != nil {
		t.Fatalf("doJSON after redirect: %v", err)
	}

	if len(replicaSeen) != 1 || len(primarySeen) != 1 {
		t.Fatalf("attempts: replica=%d primary=%d, want 1 each", len(replicaSeen), len(primarySeen))
	}
	for i, h := range append(replicaSeen, primarySeen...) {
		got, ok := tracing.ParseTraceparent(h)
		if !ok || got.TraceID != sc.TraceID {
			t.Fatalf("attempt %d carried traceparent %q, want trace %s", i, h, sc.TraceID)
		}
		if !got.Sampled {
			t.Fatalf("attempt %d lost the sampled flag: %q", i, h)
		}
	}
}

func TestTraceSurvivesSafeReplay(t *testing.T) {
	// A dead endpoint whose port is provably closed: listen, note the
	// address, close — connection refused is a dial error, the one
	// failure that makes a POST replay safe.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := "http://" + l.Addr().String()
	l.Close()

	var liveSeen []string
	live := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		liveSeen = append(liveSeen, r.Header.Get(tracing.Header))
		WriteJSON(w, http.StatusOK, map[string]int{"accepted": 1})
	}))
	defer live.Close()

	eps, err := NewEndpoints([]string{dead, live.URL})
	if err != nil {
		t.Fatal(err)
	}
	ctx, sc := tracedContext(t)
	var out map[string]int
	if err := doJSON(eps, ctx, nil, http.MethodPost, "/v1/jobs", map[string]int{"n": 1}, "test", &out); err != nil {
		t.Fatalf("doJSON after replay: %v", err)
	}

	if len(liveSeen) != 1 {
		t.Fatalf("live endpoint saw %d attempts, want 1", len(liveSeen))
	}
	got, ok := tracing.ParseTraceparent(liveSeen[0])
	if !ok || got.TraceID != sc.TraceID || !got.Sampled {
		t.Fatalf("replayed attempt carried %q, want sampled trace %s", liveSeen[0], sc.TraceID)
	}
}

func TestUntracedContextAddsNoHeader(t *testing.T) {
	var seen *string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h := r.Header.Get(tracing.Header)
		seen = &h
		WriteJSON(w, http.StatusOK, map[string]int{})
	}))
	defer srv.Close()
	eps, err := NewEndpoints([]string{srv.URL})
	if err != nil {
		t.Fatal(err)
	}
	var out map[string]int
	if err := doJSON(eps, context.Background(), nil, http.MethodGet, "/v1/stats", nil, "test", &out); err != nil {
		t.Fatal(err)
	}
	if seen == nil || *seen != "" {
		t.Fatalf("untraced request must not carry a traceparent, got %v", seen)
	}
}
