package serve

// Shared HTTP-layer instrumentation for the cmd/ services: an
// in-flight gauge and a per-route, per-status request counter. Routes
// are labeled by the mux pattern that matched (e.g. "GET /v1/jobs/{id}"
// — bounded cardinality, never the raw path) and "unmatched" for 404s
// that hit no pattern.

import (
	"net/http"
	"strconv"

	"carbonshift/internal/metrics"
)

// HTTPMetrics instruments an http.Handler.
type HTTPMetrics struct {
	inFlight *metrics.Gauge
	requests *metrics.CounterVec
}

// NewHTTPMetrics registers the http_* families on r.
func NewHTTPMetrics(r *metrics.Registry) *HTTPMetrics {
	return &HTTPMetrics{
		inFlight: r.NewGauge("http_in_flight_requests",
			"Requests currently being served."),
		requests: r.NewCounterVec("http_requests_total",
			"Completed requests by matched route pattern and status code.",
			"route", "code"),
	}
}

// Wrap instruments next: the in-flight gauge brackets the call, and on
// completion one counter increments for the (matched pattern, status)
// pair. The wrapper passes http.Flusher through, so streaming handlers
// (the replication stream's chunked long-poll) keep working.
func (m *HTTPMetrics) Wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		m.inFlight.Add(1)
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		next.ServeHTTP(sw, r)
		m.inFlight.Add(-1)
		route := r.Pattern // set by ServeMux once a pattern matched
		if route == "" {
			route = "unmatched"
		}
		m.requests.With(route, strconv.Itoa(sw.code)).Inc()
	})
}

// statusWriter captures the response status for the request counter.
type statusWriter struct {
	http.ResponseWriter
	code  int
	wrote bool
}

func (w *statusWriter) WriteHeader(code int) {
	if !w.wrote {
		w.code = code
		w.wrote = true
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	w.wrote = true
	return w.ResponseWriter.Write(p)
}

// Flush passes through so handlers that type-assert http.Flusher (the
// replication stream source) still see one.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap supports http.ResponseController.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }
