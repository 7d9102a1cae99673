package httpx

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
)

type echo struct {
	Name string `json:"name"`
}

// doJSON sends in (nil for no body) as JSON through e's failover
// rotation and decodes the answer into out.
func doJSON(e *Endpoints, ctx context.Context, hc *http.Client, method, path string, in any, prefix string, out any) error {
	var payload []byte
	var contentType string
	if in != nil {
		var err error
		if payload, err = json.Marshal(in); err != nil {
			return err
		}
		contentType = "application/json"
	}
	resp, err := e.Do(ctx, hc, method, path, contentType, payload, prefix)
	if err != nil {
		return err
	}
	return resp.Decode(prefix, out)
}

func jsonServer(t *testing.T, name string, status func() int, primary func() string) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		st := status()
		switch st {
		case http.StatusOK:
			WriteJSON(w, st, echo{Name: name})
		case http.StatusMisdirectedRequest:
			WriteJSON(w, st, map[string]string{"error": "follower", "primary": primary()})
		default:
			WriteJSON(w, st, map[string]string{"error": "boom"})
		}
	}))
	t.Cleanup(ts.Close)
	return ts
}

func ok() int { return http.StatusOK }

func TestEndpointsValidation(t *testing.T) {
	if _, err := NewEndpoints(nil); err == nil {
		t.Error("accepted an empty endpoint list")
	}
	if _, err := NewEndpoints([]string{"not-a-url"}); err == nil {
		t.Error("accepted a schemeless URL")
	}
	e, err := NewEndpoints([]string{"http://a:1", "http://a:1", "http://b:2"})
	if err != nil {
		t.Fatal(err)
	}
	if e.Len() != 2 {
		t.Errorf("duplicates kept: Len = %d, want 2", e.Len())
	}
}

// TestFailoverOnRefusedConnection: a dead first endpoint rotates to a
// live one, and the choice sticks for the next request.
func TestFailoverOnRefusedConnection(t *testing.T) {
	live := jsonServer(t, "live", ok, nil)
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	dead.Close() // refused from now on

	e, err := NewEndpoints([]string{dead.URL, live.URL})
	if err != nil {
		t.Fatal(err)
	}
	var out echo
	if err := doJSON(e, context.Background(), nil, http.MethodGet, "/x", nil, "test", &out); err != nil {
		t.Fatal(err)
	}
	if out.Name != "live" {
		t.Fatalf("answered by %q", out.Name)
	}
	if e.Current() != live.URL {
		t.Fatalf("rotation did not stick: current = %s", e.Current())
	}
}

// TestFailoverOn421Redirect: a follower's primary hint is followed
// even when the primary was never configured.
func TestFailoverOn421Redirect(t *testing.T) {
	primary := jsonServer(t, "primary", ok, nil)
	follower := jsonServer(t, "follower",
		func() int { return http.StatusMisdirectedRequest },
		func() string { return primary.URL })

	e, err := NewEndpoints([]string{follower.URL}) // primary unknown!
	if err != nil {
		t.Fatal(err)
	}
	var out echo
	if err := doJSON(e, context.Background(), nil, http.MethodPost, "/x", echo{Name: "req"}, "test", &out); err != nil {
		t.Fatal(err)
	}
	if out.Name != "primary" {
		t.Fatalf("answered by %q, want the hinted primary", out.Name)
	}
	if e.Len() != 2 || e.Current() != primary.URL {
		t.Fatalf("hint not learned: len=%d current=%s", e.Len(), e.Current())
	}
}

// TestFailoverOn5xx: a broken endpoint rotates; 503 backpressure does
// not (it is a real answer).
func TestFailoverOn5xx(t *testing.T) {
	var firstStatus atomic.Int64
	firstStatus.Store(http.StatusInternalServerError)
	broken := jsonServer(t, "broken", func() int { return int(firstStatus.Load()) }, nil)
	live := jsonServer(t, "live", ok, nil)

	e, err := NewEndpoints([]string{broken.URL, live.URL})
	if err != nil {
		t.Fatal(err)
	}
	var out echo
	if err := doJSON(e, context.Background(), nil, http.MethodGet, "/x", nil, "test", &out); err != nil {
		t.Fatal(err)
	}
	if out.Name != "live" {
		t.Fatalf("answered by %q", out.Name)
	}

	e2, err := NewEndpoints([]string{broken.URL, live.URL})
	if err != nil {
		t.Fatal(err)
	}
	firstStatus.Store(http.StatusServiceUnavailable)
	err = doJSON(e2, context.Background(), nil, http.MethodGet, "/x", nil, "test", &out)
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("503 err = %v, want the server's backpressure error", err)
	}
	if e2.Current() != broken.URL {
		t.Fatal("503 rotated the endpoint; backpressure must stay a real answer")
	}
}

// TestNoReplayOfAmbiguousWrites: a POST the server answered with 5xx
// — or whose connection died after dialing — may already have been
// applied, so it must surface as an error instead of being replayed
// on another endpoint.
func TestNoReplayOfAmbiguousWrites(t *testing.T) {
	broken := jsonServer(t, "broken", func() int { return http.StatusInternalServerError }, nil)
	live := jsonServer(t, "live", ok, nil)
	e, err := NewEndpoints([]string{broken.URL, live.URL})
	if err != nil {
		t.Fatal(err)
	}
	var out echo
	err = doJSON(e, context.Background(), nil, http.MethodPost, "/x", echo{Name: "w"}, "test", &out)
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("5xx POST err = %v, want the server error surfaced", err)
	}
	if e.Current() != broken.URL {
		t.Fatal("5xx POST rotated endpoints; a write must not be replayed after the server touched it")
	}
	// The same POST against a DEAD endpoint (dial error — provably
	// never delivered) must still fail over.
	dead := httptest.NewServer(nil)
	dead.Close()
	e2, err := NewEndpoints([]string{dead.URL, live.URL})
	if err != nil {
		t.Fatal(err)
	}
	if err := doJSON(e2, context.Background(), nil, http.MethodPost, "/x", echo{Name: "w"}, "test", &out); err != nil {
		t.Fatal(err)
	}
	if out.Name != "live" {
		t.Fatalf("answered by %q", out.Name)
	}
}

// TestFailoverAllDead: every endpoint failing yields the last error,
// not a hang.
func TestFailoverAllDead(t *testing.T) {
	dead := httptest.NewServer(nil)
	dead.Close()
	e, err := NewEndpoints([]string{dead.URL})
	if err != nil {
		t.Fatal(err)
	}
	var out echo
	err = doJSON(e, context.Background(), nil, http.MethodGet, "/x", nil, "test", &out)
	if err == nil || !strings.Contains(err.Error(), "all endpoints failed") {
		t.Fatalf("err = %v", err)
	}
}

// TestFailover421Loop: two followers pointing at each other terminate
// with an error instead of redirecting forever.
func TestFailover421Loop(t *testing.T) {
	var aURL, bURL atomic.Value
	mk := func(self string, peer *atomic.Value) *httptest.Server {
		return jsonServer(t, self,
			func() int { return http.StatusMisdirectedRequest },
			func() string { return peer.Load().(string) })
	}
	a := mk("a", &bURL)
	b := mk("b", &aURL)
	aURL.Store(a.URL)
	bURL.Store(b.URL)

	e, err := NewEndpoints([]string{a.URL, b.URL})
	if err != nil {
		t.Fatal(err)
	}
	var out echo
	err = doJSON(e, context.Background(), nil, http.MethodPost, "/x", nil, "test", &out)
	if err == nil || !strings.Contains(err.Error(), "misdirected") {
		t.Fatalf("err = %v", err)
	}
}

// TestRedirectGrowsAttemptBudget is the regression test for the stale
// failover bound: Do used to size its attempt budget (2 * Len) once,
// before any 421 hint could teach it new endpoints, so a primary
// learned late in the pass could exhaust the budget without ever being
// tried. With one configured endpoint the old budget allowed 3
// attempts; a redirect chain of three followers needs a 4th to reach
// the real primary, so this chain only resolves when the budget is
// recomputed as the endpoint set grows.
func TestRedirectGrowsAttemptBudget(t *testing.T) {
	primary := jsonServer(t, "primary", ok, nil)
	hop := primary.URL
	var chain []*httptest.Server
	for i := 0; i < 3; i++ {
		next := hop
		f := jsonServer(t, "follower",
			func() int { return http.StatusMisdirectedRequest },
			func() string { return next })
		chain = append(chain, f)
		hop = f.URL
	}

	e, err := NewEndpoints([]string{chain[len(chain)-1].URL})
	if err != nil {
		t.Fatal(err)
	}
	var out echo
	if err := doJSON(e, context.Background(), nil, http.MethodPost, "/x", echo{Name: "req"}, "test", &out); err != nil {
		t.Fatalf("redirect chain not followed to the primary: %v", err)
	}
	if out.Name != "primary" {
		t.Fatalf("answered by %q, want the chained primary", out.Name)
	}
	if e.Len() != 4 || e.Current() != primary.URL {
		t.Fatalf("chain not learned: len=%d current=%s", e.Len(), e.Current())
	}
}

// TestDoJSONBodyResent: the request body is re-sent on each attempt,
// not consumed by the first failed one.
func TestDoJSONBodyResent(t *testing.T) {
	var got atomic.Value
	primary := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var in echo
		json.NewDecoder(r.Body).Decode(&in)
		got.Store(in.Name)
		WriteJSON(w, http.StatusOK, echo{Name: "primary"})
	}))
	t.Cleanup(primary.Close)
	dead := httptest.NewServer(nil)
	dead.Close()

	e, err := NewEndpoints([]string{dead.URL, primary.URL})
	if err != nil {
		t.Fatal(err)
	}
	var out echo
	if err := doJSON(e, context.Background(), nil, http.MethodPost, "/x", echo{Name: "payload"}, "test", &out); err != nil {
		t.Fatal(err)
	}
	if got.Load() != "payload" {
		t.Fatalf("primary received body %q", got.Load())
	}
}
