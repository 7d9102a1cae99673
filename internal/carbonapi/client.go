package carbonapi

import (
	"context"
	"fmt"
	"net/http"
	"net/url"
	"strings"

	"carbonshift/internal/httpx"
)

// Client is a typed client for the carbon-information API.
type Client struct {
	base string
	hc   *http.Client
}

// NewClient creates a client for the API at baseURL. A nil httpClient
// uses http.DefaultClient.
func NewClient(baseURL string, httpClient *http.Client) (*Client, error) {
	u, err := url.Parse(baseURL)
	if err != nil || u.Scheme == "" || u.Host == "" {
		return nil, fmt.Errorf("carbonapi: invalid base URL %q", baseURL)
	}
	if httpClient == nil {
		httpClient = http.DefaultClient
	}
	return &Client{base: u.String(), hc: httpClient}, nil
}

// Regions lists the available region codes.
func (c *Client) Regions(ctx context.Context) ([]string, error) {
	var out RegionsResponse
	if err := c.get(ctx, "/v1/regions", &out); err != nil {
		return nil, err
	}
	return out.Regions, nil
}

// Latest returns the region's current intensity sample.
func (c *Client) Latest(ctx context.Context, region string) (Point, error) {
	var out LatestResponse
	path := fmt.Sprintf("/v1/carbon-intensity/%s/latest", url.PathEscape(region))
	if err := c.get(ctx, path, &out); err != nil {
		return Point{}, err
	}
	return out.Point, nil
}

// History returns up to `hours` trailing samples (oldest first).
func (c *Client) History(ctx context.Context, region string, hours int) ([]Point, error) {
	var out SeriesResponse
	path := fmt.Sprintf("/v1/carbon-intensity/%s/history?hours=%d", url.PathEscape(region), hours)
	if err := c.get(ctx, path, &out); err != nil {
		return nil, err
	}
	return out.Points, nil
}

// Forecast returns `hours` of model forecast starting now.
func (c *Client) Forecast(ctx context.Context, region string, hours int) ([]Point, error) {
	var out SeriesResponse
	path := fmt.Sprintf("/v1/carbon-intensity/%s/forecast?hours=%d", url.PathEscape(region), hours)
	if err := c.get(ctx, path, &out); err != nil {
		return nil, err
	}
	return out.Points, nil
}

// Batch returns every requested region's current intensity — and, when
// hours > 0, its trailing history — in a single round trip. Multi-region
// policies (load balancers, spatial schedulers) should prefer it over
// one Latest call per region per decision.
func (c *Client) Batch(ctx context.Context, regions []string, hours int) ([]BatchRegion, error) {
	if len(regions) == 0 {
		return nil, fmt.Errorf("carbonapi: no regions requested")
	}
	var out BatchResponse
	path := "/v1/carbon-intensity/batch?regions=" + url.QueryEscape(strings.Join(regions, ","))
	if hours > 0 {
		path += fmt.Sprintf("&hours=%d", hours)
	}
	if err := c.get(ctx, path, &out); err != nil {
		return nil, err
	}
	return out.Regions, nil
}

func (c *Client) get(ctx context.Context, path string, out any) error {
	resp, err := httpx.Do(ctx, c.hc, http.MethodGet, c.base+path, "", nil, "carbonapi")
	if err != nil {
		return err
	}
	return resp.Decode("carbonapi", out)
}
