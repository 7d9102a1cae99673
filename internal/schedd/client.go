package schedd

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"

	"carbonshift/internal/httpx"
)

// Client is a typed client for the scheduling service.
//
// # The 421 write-redirect contract
//
// In a replicated deployment only the primary accepts writes. A
// follower answers POST /v1/jobs (and any other state-changing
// request) with 421 Misdirected Request and a JSON body naming its
// primary:
//
//	{"error": "this instance is a read-only follower; ...",
//	 "primary": "http://primary:9090"}
//
// A single-endpoint Client surfaces the 421 as an error; a client
// built with NewFailoverClient follows the hint automatically — and
// also rotates to the next configured endpoint when one is dead — so a
// submitter configured with every replica's URL keeps writing across a
// failover: the dead primary is skipped, the promoted follower
// accepts. Writes are only replayed when the failure proves the server
// never saw them (a dial error, or the explicit 421 refusal); an
// ambiguous failure surfaces as an error rather than risking a
// double-submit. Reads served by a follower carry an
// X-Replication-Lag-Hours response header bounding their staleness.
type Client struct {
	base string
	hc   *http.Client
	eps  *httpx.Endpoints // nil for single-endpoint clients
}

// NewClient creates a client for the service at baseURL. A nil
// httpClient uses http.DefaultClient.
func NewClient(baseURL string, httpClient *http.Client) (*Client, error) {
	u, err := url.Parse(baseURL)
	if err != nil || u.Scheme == "" || u.Host == "" {
		return nil, fmt.Errorf("schedd: invalid base URL %q", baseURL)
	}
	if httpClient == nil {
		httpClient = http.DefaultClient
	}
	return &Client{base: u.String(), hc: httpClient}, nil
}

// NewFailoverClient creates a client over several replica base URLs.
// Requests go to a sticky current endpoint and fail over on connection
// errors, 5xx responses, and 421 write-redirects (following the
// primary hint, learning endpoints it did not know). A nil httpClient
// uses http.DefaultClient.
func NewFailoverClient(baseURLs []string, httpClient *http.Client) (*Client, error) {
	eps, err := httpx.NewEndpoints(baseURLs)
	if err != nil {
		return nil, fmt.Errorf("schedd: %w", err)
	}
	if httpClient == nil {
		httpClient = http.DefaultClient
	}
	return &Client{hc: httpClient, eps: eps}, nil
}

// Endpoint returns the endpoint the next request will try first (the
// single base URL, or the failover rotation's current pick).
func (c *Client) Endpoint() string {
	if c.eps == nil {
		return c.base
	}
	return c.eps.Current()
}

// Submit submits one or more jobs over the JSON protocol and returns
// the acknowledgement. Against a gateway that split the batch across
// partitions, a partial outcome surfaces as a *PartialError carrying
// the admitted ids.
func (c *Client) Submit(ctx context.Context, jobs ...JobRequest) (SubmitResponse, error) {
	return c.submit(ctx, JSONWire, jobs)
}

// SubmitBatch is Submit over the binary batch protocol — the same
// admission semantics at a fraction of the encode/decode cost.
// Failover, the 421 write-redirect contract, and trace propagation
// behave exactly as on Submit: only 200 responses are binary, every
// error keeps the shared JSON error shape.
func (c *Client) SubmitBatch(ctx context.Context, jobs ...JobRequest) (SubmitResponse, error) {
	return c.submit(ctx, BinaryWire, jobs)
}

// submit is the one submit path: encode through the wire, send, and
// map the response — 200 through the wire's ack decoder, 207 into a
// *PartialError, everything else through the shared error mapping. 207
// sits on the Endpoints failover path's default branch, so a partial
// outcome is never replayed against another endpoint.
func (c *Client) submit(ctx context.Context, wire *Wire, jobs []JobRequest) (SubmitResponse, error) {
	if len(jobs) == 0 {
		return SubmitResponse{}, fmt.Errorf("schedd: no jobs to submit")
	}
	payload, err := wire.AppendSubmit(nil, jobs)
	if err != nil {
		return SubmitResponse{}, fmt.Errorf("schedd: %w", err)
	}
	var out SubmitResponse
	err = c.send(ctx, http.MethodPost, wire.Route, wire.ContentType, payload,
		func(statusCode int, status string, body []byte) error {
			switch statusCode {
			case http.StatusOK:
				ack, err := wire.DecodeAck(body)
				if err != nil {
					return fmt.Errorf("schedd: %w", err)
				}
				out = ack
				return nil
			case http.StatusMultiStatus:
				var ms MultiStatusResponse
				if err := json.Unmarshal(body, &ms); err == nil && len(ms.Outcomes) > 0 {
					return &PartialError{Resp: ms}
				}
			}
			return httpx.DecodeResponse(statusCode, status, body, "schedd", nil)
		})
	if err != nil {
		return SubmitResponse{}, err
	}
	return out, nil
}

// send issues one request and hands the final response to decode. It
// is the only place that knows whether this client fails over: a
// failover client goes through the Endpoints rotation, a
// single-endpoint one straight to its base URL.
func (c *Client) send(ctx context.Context, method, path, contentType string, payload []byte, decode func(statusCode int, status string, body []byte) error) error {
	if c.eps != nil {
		return c.eps.Do(ctx, c.hc, method, path, contentType, payload, "schedd", decode)
	}
	var body io.Reader
	if payload != nil {
		body = bytes.NewReader(payload)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return fmt.Errorf("schedd: building request: %w", err)
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	return httpx.DoRaw(c.hc, req, "schedd", decode)
}

// Job returns the live status of one job.
func (c *Client) Job(ctx context.Context, id int) (JobResponse, error) {
	var out JobResponse
	if err := c.do(ctx, http.MethodGet, fmt.Sprintf("/v1/jobs/%d", id), nil, &out); err != nil {
		return JobResponse{}, err
	}
	return out, nil
}

// Stats returns the fleet-wide aggregate.
func (c *Client) Stats(ctx context.Context) (StatsResponse, error) {
	var out StatsResponse
	if err := c.do(ctx, http.MethodGet, "/v1/stats", nil, &out); err != nil {
		return StatsResponse{}, err
	}
	return out, nil
}

// Healthz reports service liveness.
func (c *Client) Healthz(ctx context.Context) error {
	var out map[string]string
	return c.do(ctx, http.MethodGet, "/healthz", nil, &out)
}

// Promote asks a follower to take over as primary (idempotent: a
// primary answers promoted=false). Note this goes to the client's
// current endpoint directly — promotion is exactly the case where the
// failover redirect must NOT bounce the request back to the primary.
func (c *Client) Promote(ctx context.Context) (PromoteResponse, error) {
	var out PromoteResponse
	base := c.Endpoint()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/repl/promote", nil)
	if err != nil {
		return out, fmt.Errorf("schedd: building request: %w", err)
	}
	if err := httpx.DoJSON(c.hc, req, "schedd", &out); err != nil {
		return out, err
	}
	return out, nil
}

// do is the JSON request/response helper of the read routes.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	var payload []byte
	var contentType string
	if in != nil {
		var err error
		if payload, err = json.Marshal(in); err != nil {
			return fmt.Errorf("schedd: encoding request: %w", err)
		}
		contentType = "application/json"
	}
	return c.send(ctx, method, path, contentType, payload, func(statusCode int, status string, body []byte) error {
		return httpx.DecodeResponse(statusCode, status, body, "schedd", out)
	})
}
