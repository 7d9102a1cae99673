package serve

// HTTP tracing middleware: the server-side on/off-ramp for W3C
// traceparent propagation. Incoming requests with a valid header
// continue the caller's trace (its sampling decision wins); bare
// requests mint a fresh head-sampled trace. Sampled responses echo the
// traceparent so callers without their own tracer can still quote a
// trace ID at /debug/traces; unsampled ones skip the echo — there is
// nothing in the ring to quote, and rendering the header would be
// per-request garbage on every unsampled request.
//
// Stacking contract with HTTPMetrics.Wrap: both wrappers must compose
// in either order. Two hazards are handled here. First, http.Flusher /
// Unwrap: both middlewares wrap the writer in statusWriter, whose
// Flush and Unwrap pass through, so the replication stream's chunked
// long-poll keeps flushing however deep the nesting. Second, the
// matched route: tracing must swap the request context, and
// r.WithContext returns a shallow copy — ServeMux records the matched
// pattern on THAT copy, so this middleware copies r2.Pattern back onto
// the original request or an outer metrics middleware would label
// every request "unmatched".

import (
	"log/slog"
	"net/http"
	"time"

	"carbonshift/internal/tracing"
)

// HTTPTracing traces an http.Handler.
type HTTPTracing struct {
	tr  *tracing.Tracer
	log *slog.Logger // slow-request log; nil disables
}

// NewHTTPTracing builds the middleware around tr. log, when non-nil,
// receives a warn line for every request that crosses the tracer's
// slow threshold, stamped with the trace ID.
func NewHTTPTracing(tr *tracing.Tracer, log *slog.Logger) *HTTPTracing {
	return &HTTPTracing{tr: tr, log: log}
}

// Wrap starts (or continues) a trace for each request, stamps the
// matched route pattern and status code on the root span, and applies
// the slow-request escape hatch for unsampled requests.
func (m *HTTPTracing) Wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx, sp := m.tr.StartRemote(r.Context(), r.Header.Get(tracing.Header), r.Method)
		sc := tracing.FromContext(ctx)
		if sc.Sampled {
			w.Header().Set(tracing.Header, sc.Traceparent())
		}
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		r2 := r.WithContext(ctx)
		start := time.Now()
		next.ServeHTTP(sw, r2)
		dur := time.Since(start)
		r.Pattern = r2.Pattern // see the stacking contract above
		route := r2.Pattern
		if route == "" {
			route = "unmatched"
		}
		if sp != nil {
			sp.SetName(route)
			sp.SetAttr(tracing.Int("code", sw.code))
			sp.End()
		} else if m.tr.Slow(dur) {
			// Gated here, not just inside RecordSlow: building the attr
			// and the variadic slice is per-request garbage otherwise.
			m.tr.RecordSlow(sc.TraceID, route, start, dur, tracing.Int("code", sw.code))
		}
		if m.log != nil && m.tr.Slow(dur) {
			tracing.Logger(ctx, m.log).Warn("slow request",
				"route", route, "code", sw.code, "dur_ms", float64(dur)/float64(time.Millisecond))
		}
	})
}
