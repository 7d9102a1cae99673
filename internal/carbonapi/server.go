// Package carbonapi implements a carbon-information service — the
// Electricity Maps / WattTime-style web API the paper identifies
// (§2.1) as the infrastructure that makes carbon-aware scheduling
// possible — plus a typed client for it.
//
// The server exposes the simulated dataset over HTTP:
//
//	GET /v1/regions                                   region codes
//	GET /v1/carbon-intensity/{region}/latest          current intensity
//	GET /v1/carbon-intensity/{region}/history?hours=N trailing window
//	GET /v1/carbon-intensity/{region}/forecast?hours=N model forecast
//	GET /v1/carbon-intensity/batch?regions=A,B&hours=N multi-region snapshot
//	GET /healthz                                      liveness
//
// The batch endpoint serves multi-region consumers (load balancers,
// spatial schedulers) that would otherwise issue one request per region
// per decision: one round trip returns every region's current intensity
// and, when hours is given, its trailing window.
//
// "Now" is injectable, so the server can replay the dataset at any
// speed; the forecast endpoint only ever sees history up to now — the
// API cannot leak the simulator's future.
package carbonapi

import (
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"time"

	"carbonshift/internal/forecast"
	"carbonshift/internal/httpx"
	"carbonshift/internal/metrics"
	"carbonshift/internal/serve"
	"carbonshift/internal/trace"
	"carbonshift/internal/tracing"
)

// Unit is the fixed unit of every intensity value served.
const Unit = "gCO2eq/kWh"

// maxWindowHours bounds history and forecast requests.
const maxWindowHours = 7 * 24 * 60

// Point is one timestamped intensity sample.
type Point struct {
	Timestamp       time.Time `json:"timestamp"`
	CarbonIntensity float64   `json:"carbon_intensity"`
}

// LatestResponse is the /latest payload.
type LatestResponse struct {
	Region string `json:"region"`
	Unit   string `json:"unit"`
	Point  Point  `json:"point"`
}

// SeriesResponse is the /history and /forecast payload.
type SeriesResponse struct {
	Region   string  `json:"region"`
	Unit     string  `json:"unit"`
	Forecast bool    `json:"forecast"`
	Points   []Point `json:"points"`
}

// RegionsResponse is the /regions payload.
type RegionsResponse struct {
	Regions []string `json:"regions"`
}

// BatchRegion is one region's slice of the /batch payload.
type BatchRegion struct {
	Region string `json:"region"`
	Latest Point  `json:"latest"`
	// History holds the trailing window (oldest first) when the request
	// asked for one; it excludes the current hour.
	History []Point `json:"history,omitempty"`
}

// BatchResponse is the /batch payload.
type BatchResponse struct {
	Unit    string        `json:"unit"`
	Regions []BatchRegion `json:"regions"`
}

// ErrorResponse is the JSON error body.
type ErrorResponse struct {
	Error string `json:"error"`
}

// Server serves a trace set as a carbon-information API.
type Server struct {
	set *trace.Set
	now func() time.Time

	registry *metrics.Registry
	httpmx   *serve.HTTPMetrics
	tracer   *tracing.Tracer
}

// Option configures a Server.
type Option func(*Server)

// WithClock injects the time source (for replay and tests). The
// returned time is clamped into the dataset's span.
func WithClock(now func() time.Time) Option {
	return func(s *Server) { s.now = now }
}

// WithMetrics enables GET /metrics: the shared http_* request families
// plus carbonapi_trace_hour / carbonapi_regions gauges.
func WithMetrics() Option {
	return func(s *Server) {
		r := metrics.NewRegistry()
		s.registry = r
		s.httpmx = serve.NewHTTPMetrics(r)
		r.NewGaugeFunc("carbonapi_trace_hour",
			"The replay hour /latest answers from, clamped into the dataset span.",
			func() float64 { return float64(s.nowHour()) })
		r.NewGaugeFunc("carbonapi_regions",
			"Regions in the served trace set.",
			func() float64 { return float64(len(s.set.Regions())) })
	}
}

// WithTracing enables the span recorder: requests are head-sampled
// into a bounded ring served at GET /debug/traces, and a traceparent
// arriving from a carbon-aware client (say, a scheduler batch-fetching
// intensities mid-admission) joins that client's trace. The zero
// Config takes the package defaults.
func WithTracing(cfg tracing.Config) Option {
	return func(s *Server) { s.tracer = tracing.New(cfg) }
}

// Metrics returns the server's registry (nil unless WithMetrics).
func (s *Server) Metrics() *metrics.Registry { return s.registry }

// Tracer returns the server's span recorder (nil unless WithTracing).
func (s *Server) Tracer() *tracing.Tracer { return s.tracer }

// NewServer builds a server over the set.
func NewServer(set *trace.Set, opts ...Option) *Server {
	s := &Server{
		set: set,
		now: time.Now,
	}
	for _, o := range opts {
		o(s)
	}
	return s
}

// nowHour maps the clock to a trace hour, clamped into [1, len-1] so
// there is always at least one hour of history.
func (s *Server) nowHour() int {
	elapsed := s.now().UTC().Sub(s.set.Start())
	h := int(elapsed / time.Hour)
	if h < 1 {
		h = 1
	}
	if max := s.set.Len() - 1; h > max {
		h = max
	}
	return h
}

// Handler returns the HTTP handler for the API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/regions", s.handleRegions)
	mux.HandleFunc("GET /v1/carbon-intensity/batch", s.handleBatch)
	mux.HandleFunc("GET /v1/carbon-intensity/{region}/latest", s.handleLatest)
	mux.HandleFunc("GET /v1/carbon-intensity/{region}/history", s.handleHistory)
	mux.HandleFunc("GET /v1/carbon-intensity/{region}/forecast", s.handleForecast)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	if s.registry != nil {
		mux.Handle("GET /metrics", s.registry.Handler())
	}
	if s.tracer != nil {
		mux.Handle("GET /debug/traces", s.tracer.Handler())
	}
	var h http.Handler = mux
	if s.httpmx != nil {
		h = s.httpmx.Wrap(h)
	}
	h = serve.NewHTTPTracing(s.tracer, slog.Default()).Wrap(h)
	return h
}

func (s *Server) handleRegions(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, RegionsResponse{Regions: s.set.Regions()})
}

func (s *Server) region(w http.ResponseWriter, r *http.Request) (*trace.Trace, bool) {
	code := r.PathValue("region")
	tr, ok := s.set.Get(code)
	if !ok {
		writeJSON(w, http.StatusNotFound, ErrorResponse{Error: fmt.Sprintf("unknown region %q", code)})
		return nil, false
	}
	return tr, true
}

func (s *Server) handleLatest(w http.ResponseWriter, r *http.Request) {
	tr, ok := s.region(w, r)
	if !ok {
		return
	}
	h := s.nowHour()
	writeJSON(w, http.StatusOK, LatestResponse{
		Region: tr.Region,
		Unit:   Unit,
		Point:  Point{Timestamp: tr.TimeAt(h), CarbonIntensity: tr.At(h)},
	})
}

func (s *Server) handleHistory(w http.ResponseWriter, r *http.Request) {
	tr, ok := s.region(w, r)
	if !ok {
		return
	}
	hours, ok := hoursParam(w, r, 24)
	if !ok {
		return
	}
	now := s.nowHour()
	lo := now - hours
	if lo < 0 {
		lo = 0
	}
	points := make([]Point, 0, now-lo)
	for h := lo; h < now; h++ {
		points = append(points, Point{Timestamp: tr.TimeAt(h), CarbonIntensity: tr.At(h)})
	}
	writeJSON(w, http.StatusOK, SeriesResponse{Region: tr.Region, Unit: Unit, Points: points})
}

func (s *Server) handleForecast(w http.ResponseWriter, r *http.Request) {
	tr, ok := s.region(w, r)
	if !ok {
		return
	}
	hours, ok := hoursParam(w, r, 24)
	if !ok {
		return
	}
	now := s.nowHour()
	pred, err := forecast.Blended{}.Forecast(tr.CI[:now], hours)
	if err != nil {
		writeJSON(w, http.StatusUnprocessableEntity, ErrorResponse{
			Error: fmt.Sprintf("forecast unavailable: %v", err),
		})
		return
	}
	points := make([]Point, len(pred))
	for i, v := range pred {
		points[i] = Point{Timestamp: tr.TimeAt(now).Add(time.Duration(i) * time.Hour), CarbonIntensity: v}
	}
	writeJSON(w, http.StatusOK, SeriesResponse{Region: tr.Region, Unit: Unit, Forecast: true, Points: points})
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	raw := r.URL.Query().Get("regions")
	if raw == "" {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: "regions parameter is required (comma-separated codes)"})
		return
	}
	codes := strings.Split(raw, ",")
	hours, ok := hoursParam(w, r, 0) // 0: latest only, no history
	if !ok {
		return
	}
	now := s.nowHour()
	lo := now - hours
	if lo < 0 {
		lo = 0
	}
	out := BatchResponse{Unit: Unit, Regions: make([]BatchRegion, 0, len(codes))}
	for _, code := range codes {
		code = strings.TrimSpace(code)
		tr, ok := s.set.Get(code)
		if !ok {
			writeJSON(w, http.StatusNotFound, ErrorResponse{Error: fmt.Sprintf("unknown region %q", code)})
			return
		}
		br := BatchRegion{
			Region: tr.Region,
			Latest: Point{Timestamp: tr.TimeAt(now), CarbonIntensity: tr.At(now)},
		}
		if hours > 0 {
			br.History = make([]Point, 0, now-lo)
			for h := lo; h < now; h++ {
				br.History = append(br.History, Point{Timestamp: tr.TimeAt(h), CarbonIntensity: tr.At(h)})
			}
		}
		out.Regions = append(out.Regions, br)
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func hoursParam(w http.ResponseWriter, r *http.Request, def int) (int, bool) {
	raw := r.URL.Query().Get("hours")
	if raw == "" {
		return def, true
	}
	n, err := strconv.Atoi(raw)
	if err != nil || n < 1 || n > maxWindowHours {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{
			Error: fmt.Sprintf("hours must be an integer in [1, %d]", maxWindowHours),
		})
		return 0, false
	}
	return n, true
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	httpx.WriteJSON(w, status, v)
}
