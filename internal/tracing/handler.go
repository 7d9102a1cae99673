package tracing

// The GET /debug/traces endpoint: a JSON dump of the ring of recent
// traces, filterable so an operator (or cmd/loadgen -slowest) can go
// from "p99 is high" to one concrete trace:
//
//	?min_ms=5            only traces at least this long
//	?route=POST /v1/jobs only traces whose root span has this name
//	?trace_id=4bf92f...  one specific trace (e.g. from a log line)
//	?limit=10            at most N traces (default 50)
//
// Traces come back newest-first; spans within a trace in start order,
// so the JSON reads as a waterfall directly.

import (
	"encoding/json"
	"net/http"
	"sort"
	"strconv"
	"time"
)

// DefaultDumpLimit is the /debug/traces trace cap when no ?limit is
// given.
const DefaultDumpLimit = 50

// SpanDump is one finished span in the /debug/traces JSON.
type SpanDump struct {
	SpanID     string    `json:"span_id"`
	ParentID   string    `json:"parent_span_id,omitempty"`
	Name       string    `json:"name"`
	Start      time.Time `json:"start"`
	DurationMS float64   `json:"duration_ms"`
	Attrs      []Attr    `json:"attrs,omitempty"`
}

// TraceDump is one trace in the /debug/traces JSON. Root is the name
// of the root-level span (the matched route pattern for HTTP traces);
// DurationMS is the root span's duration, or the span-covered window
// when no root was recorded (e.g. a follower holding only apply
// spans).
type TraceDump struct {
	TraceID      string     `json:"trace_id"`
	Root         string     `json:"root"`
	Start        time.Time  `json:"start"`
	DurationMS   float64    `json:"duration_ms"`
	Spans        []SpanDump `json:"spans"`
	DroppedSpans int        `json:"dropped_spans,omitempty"`
}

// Dump is the /debug/traces response body.
type Dump struct {
	Traces []TraceDump `json:"traces"`
}

// Snapshot renders the ring's current contents, newest trace first.
func (t *Tracer) Snapshot() Dump {
	dump := Dump{Traces: []TraceDump{}}
	if t == nil {
		return dump
	}
	t.mu.Lock()
	for _, block := range t.ring {
		for i := range block {
			if e := &block[i]; e.spans > 0 {
				dump.Traces = append(dump.Traces, dumpEntry(e.id, e.decode(), e.dropped))
			}
		}
	}
	t.mu.Unlock()
	sort.Slice(dump.Traces, func(i, j int) bool {
		return dump.Traces[i].Start.After(dump.Traces[j].Start)
	})
	return dump
}

// dumpEntry renders one trace from its kept spans, in recorded order.
// The root is the longest span whose parent was not recorded in this
// process — a zero parent, or a remote parent ID from the traceparent
// of a client that minted the trace elsewhere.
func dumpEntry(id TraceID, spans []spanData, dropped int) TraceDump {
	td := TraceDump{
		TraceID:      id.String(),
		Spans:        make([]SpanDump, 0, len(spans)),
		DroppedSpans: dropped,
	}
	local := make(map[SpanID]bool, len(spans))
	for _, sd := range spans {
		local[sd.spanID] = true
	}
	var start, end time.Time
	var rootDur time.Duration
	for _, sd := range spans {
		if start.IsZero() || sd.start.Before(start) {
			start = sd.start
		}
		if fin := sd.start.Add(sd.dur); end.IsZero() || fin.After(end) {
			end = fin
		}
		if !local[sd.parent] && (td.Root == "" || sd.dur > rootDur) {
			td.Root, rootDur = sd.name, sd.dur
		}
		dump := SpanDump{
			SpanID:     sd.spanID.String(),
			Name:       sd.name,
			Start:      sd.start,
			DurationMS: ms(sd.dur),
			Attrs:      sd.attrs,
		}
		if !sd.parent.IsZero() {
			dump.ParentID = sd.parent.String()
		}
		td.Spans = append(td.Spans, dump)
	}
	td.Start = start
	if td.Root == "" && len(spans) > 0 {
		td.Root = spans[0].name
	}
	if rootDur > 0 {
		td.DurationMS = ms(rootDur)
	} else if !end.IsZero() {
		td.DurationMS = ms(end.Sub(start))
	}
	sort.Slice(td.Spans, func(i, j int) bool { return td.Spans[i].Start.Before(td.Spans[j].Start) })
	return td
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// Handler serves the ring as GET /debug/traces (see the file comment
// for the filters). A nil tracer serves an empty dump, so the route
// can be registered unconditionally.
func (t *Tracer) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		dump := t.Snapshot()
		limit := DefaultDumpLimit
		if n, err := strconv.Atoi(q.Get("limit")); err == nil && n > 0 {
			limit = n
		}
		minMS, _ := strconv.ParseFloat(q.Get("min_ms"), 64)
		route := q.Get("route")
		traceID := q.Get("trace_id")

		kept := dump.Traces[:0]
		for _, td := range dump.Traces {
			if traceID != "" && td.TraceID != traceID {
				continue
			}
			if route != "" && td.Root != route {
				continue
			}
			if td.DurationMS < minMS {
				continue
			}
			kept = append(kept, td)
			if len(kept) >= limit {
				break
			}
		}
		dump.Traces = kept
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(dump)
	})
}
