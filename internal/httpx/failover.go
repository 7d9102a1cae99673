package httpx

// Endpoints is the multi-endpoint failover policy shared by the typed
// clients and the gateway — only the policy: each attempt is one Do
// (httpx.go), which builds, sends and reads. It is a sticky rotation
// over base URLs that survives a primary dying (connection refused /
// reset → try the next endpoint) and understands the 421
// write-redirect contract — a replica that cannot
// serve a request answers 421 Misdirected Request with a JSON body
// naming the primary ({"error": ..., "primary": "http://..."}), and
// the client jumps straight to that hint (learning it if it was not in
// the configured list) instead of probing blindly. 5xx responses also
// rotate: a dying primary should not stall a client that has a healthy
// standby configured. 4xx responses other than 421 are real answers
// and are returned as-is.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/url"
	"sync"
)

// Endpoints rotates requests across base URLs. Safe for concurrent
// use; the current endpoint is sticky until it fails.
type Endpoints struct {
	mu    sync.Mutex
	bases []string
	cur   int
}

// NewEndpoints validates and deduplicates the base URLs (at least one
// required).
func NewEndpoints(bases []string) (*Endpoints, error) {
	e := &Endpoints{}
	seen := map[string]bool{}
	for _, b := range bases {
		u, err := url.Parse(b)
		if err != nil || u.Scheme == "" || u.Host == "" {
			return nil, fmt.Errorf("httpx: invalid endpoint URL %q", b)
		}
		if !seen[u.String()] {
			seen[u.String()] = true
			e.bases = append(e.bases, u.String())
		}
	}
	if len(e.bases) == 0 {
		return nil, fmt.Errorf("httpx: no endpoints")
	}
	return e, nil
}

// Current returns the endpoint the next request will try first.
func (e *Endpoints) Current() string {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.bases[e.cur]
}

// Len returns how many endpoints are known (configured plus learned).
func (e *Endpoints) Len() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.bases)
}

// rotateFrom advances past base — unless another request already moved
// the cursor, in which case the newer choice wins.
func (e *Endpoints) rotateFrom(base string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.bases[e.cur] == base {
		e.cur = (e.cur + 1) % len(e.bases)
	}
}

// redirect jumps to the primary a 421 response hinted at, learning it
// if it was not configured. Invalid hints fall back to a plain
// rotation. It reports whether the endpoint set grew, so Do can widen
// a retry budget computed before the hint arrived.
func (e *Endpoints) redirect(from, primary string) bool {
	u, err := url.Parse(primary)
	if err != nil || u.Scheme == "" || u.Host == "" {
		e.rotateFrom(from)
		return false
	}
	target := u.String()
	e.mu.Lock()
	defer e.mu.Unlock()
	for i, b := range e.bases {
		if b == target {
			e.cur = i
			return false
		}
	}
	e.bases = append(e.bases, target)
	e.cur = len(e.bases) - 1
	return true
}

// isDialError reports a failure that happened before any request byte
// reached a server — connection refused, reset-on-connect, DNS — so
// the request was definitely NOT processed and retrying it elsewhere
// cannot double-execute it.
func isDialError(err error) bool {
	var op *net.OpError
	return errors.As(err, &op) && op.Op == "dial"
}

// Do is the failover policy around the package's one round trip (the
// free Do): each attempt is one Do against the current endpoint, and
// the first response the rotation will not retry — success or any
// status that is a real answer — is returned for the caller to switch
// on or Decode. Errors other than 421 keep the shared {"error": ...}
// JSON shape regardless of the request encoding, so callers can defer
// to Response.Decode for them. Every attempt — first try, 421 redirect,
// safe replay — carries the SAME trace context from ctx: a failover
// must not change which trace the request belongs to.
//
// Retry safety: a 421 is always retried (the replica explicitly
// refused to process it), and GET/HEAD retry on any failure. A
// non-idempotent request (POST) is only retried when the failure
// proves the server never saw it — a dial error such as connection
// refused, the signature of a dead primary. An ambiguous failure (the
// connection died mid-request or mid-response, or the endpoint
// answered 5xx) is returned to the caller rather than replayed, since
// the write may already have been applied and a blind retry would
// double-submit it.
func (e *Endpoints) Do(ctx context.Context, hc *http.Client, method, path, contentType string, payload []byte, prefix string) (*Response, error) {
	idempotent := method == http.MethodGet || method == http.MethodHead
	var lastErr error
	attempts := 2 * e.Len()
	for i := 0; i <= attempts; i++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("%s: %w", prefix, err)
		}
		base := e.Current()
		resp, err := Do(ctx, hc, method, base+path, contentType, payload, prefix+": "+base)
		switch {
		case err != nil:
			lastErr = err
			// An oversized response would be oversized from any replica.
			// Otherwise a write is replayed only when it provably never
			// reached a server: once dialed, the request may have been
			// executed before the connection (or the response) died.
			if errors.Is(err, errTooLarge) || (!idempotent && !isDialError(err)) {
				return nil, err
			}
			e.rotateFrom(base)
		case resp.StatusCode == http.StatusMisdirectedRequest:
			// A follower named its primary; go there next.
			var hint ErrorBody
			json.Unmarshal(resp.Body, &hint)
			lastErr = fmt.Errorf("%s: %s: misdirected: %s", prefix, base, hint.Error)
			if e.redirect(base, hint.Primary) {
				// The hint taught us a new endpoint after the attempt
				// budget was sized; widen it so the learned primary is
				// guaranteed its turns before we give up.
				attempts = 2 * e.Len()
			}
		case idempotent && resp.StatusCode >= 500 && resp.StatusCode != http.StatusServiceUnavailable:
			// 5xx on a read = this endpoint is broken; try another. 503
			// is exempt: it is the services' backpressure signal (queue
			// full), a real answer that a standby cannot improve on.
			// Writes are never replayed after a 5xx — the server touched
			// the request, so a retry could double-execute it.
			lastErr = resp.Decode(prefix, nil)
			e.rotateFrom(base)
		default:
			return resp, nil
		}
	}
	return nil, fmt.Errorf("%s: all endpoints failed: %w", prefix, lastErr)
}
