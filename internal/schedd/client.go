package schedd

import (
	"context"
	"encoding/json"
	"fmt"
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
// A single-endpoint Client makes exactly one attempt per call (one
// httpx.Do) and surfaces the 421 as an error; a client built with
// NewFailoverClient sends through the httpx.Endpoints failover policy,
// which follows the hint automatically — and also rotates to the next
// configured endpoint when one is dead — so a submitter configured
// with every replica's URL keeps writing across a
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
	resp, err := c.send(ctx, http.MethodPost, wire.Route, wire.ContentType, payload)
	if err != nil {
		return SubmitResponse{}, err
	}
	switch resp.StatusCode {
	case http.StatusOK:
		ack, err := wire.DecodeAck(resp.Body)
		if err != nil {
			return SubmitResponse{}, fmt.Errorf("schedd: %w", err)
		}
		return ack, nil
	case http.StatusMultiStatus:
		var ms MultiStatusResponse
		if err := json.Unmarshal(resp.Body, &ms); err == nil && len(ms.Outcomes) > 0 {
			return SubmitResponse{}, &PartialError{Resp: ms}
		}
	}
	return SubmitResponse{}, resp.Decode("schedd", nil)
}

// send issues one request and returns the final response. It is the
// only place that knows whether this client fails over: a failover
// client goes through the Endpoints rotation, a single-endpoint one
// makes exactly one attempt at its base URL. The single URL is
// deliberately not an Endpoints of one: a one-URL client must surface a
// 421, not learn the hinted primary and follow it.
func (c *Client) send(ctx context.Context, method, path, contentType string, payload []byte) (*httpx.Response, error) {
	if c.eps != nil {
		return c.eps.Do(ctx, c.hc, method, path, contentType, payload, "schedd")
	}
	return httpx.Do(ctx, c.hc, method, c.base+path, contentType, payload, "schedd")
}

// Job returns the live status of one job.
func (c *Client) Job(ctx context.Context, id int) (JobResponse, error) {
	var out JobResponse
	if err := c.get(ctx, fmt.Sprintf("/v1/jobs/%d", id), &out); err != nil {
		return JobResponse{}, err
	}
	return out, nil
}

// Stats returns the fleet-wide aggregate.
func (c *Client) Stats(ctx context.Context) (StatsResponse, error) {
	var out StatsResponse
	if err := c.get(ctx, "/v1/stats", &out); err != nil {
		return StatsResponse{}, err
	}
	return out, nil
}

// get is the JSON helper of the read routes.
func (c *Client) get(ctx context.Context, path string, out any) error {
	resp, err := c.send(ctx, http.MethodGet, path, "", nil)
	if err != nil {
		return err
	}
	return resp.Decode("schedd", out)
}
