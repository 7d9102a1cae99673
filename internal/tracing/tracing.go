// Package tracing is a dependency-free request tracer for the
// repository's services: W3C-traceparent-style trace and span IDs,
// context propagation, monotonic span timings, head-based sampling
// with an always-sample-on-slow escape hatch, and a bounded in-memory
// ring of recent traces served over GET /debug/traces (handler.go).
// It answers the question /metrics cannot: "why was THIS request
// slow?" — which phase (decode, admission lock wait, journal append,
// group-commit fsync, step catch-up, replication apply) the time went
// to, for one specific request.
//
// The design mirrors internal/metrics: everything is nil-safe — a nil
// *Tracer and a nil *Span no-op on every method, so instrumented code
// never branches on "is tracing on" — and disabling tracing is an
// opt-out (schedd.WithoutTracing), not an opt-in.
//
// Sampling is head-based: the decision is made once, when a trace is
// minted, and propagated in the traceparent sampled flag so every
// downstream hop (and, via the journal record, the replication
// follower) agrees. Locally-minted roots sample 1 in Config.
// SampleEvery deterministically; a request arriving with a sampled
// traceparent is always recorded (the caller already paid for the
// decision). The escape hatch: an UNsampled operation that turns out
// slower than Config.SlowThreshold is recorded after the fact as a
// single root span — the tail outliers an operator is hunting are
// never lost to the sampler, they just lack child detail.
//
// Cross-process join semantics: a trace ID minted here is 16 random
// bytes; any process may Record spans under it. internal/schedd stamps
// the sampled trace ID into the admission journal record, the
// replication stream carries the record verbatim, and the follower
// Records its apply span under the same ID — so one trace spans two
// processes, queryable on either side's /debug/traces by trace_id.
//
// Span timings use time.Time's monotonic reading (every span start
// comes from time.Now in-process), so durations are immune to wall-
// clock steps; the wall-clock half of the reading orders spans across
// processes well enough for a waterfall.
package tracing

import (
	"context"
	"encoding/hex"
	"log/slog"
	"math/rand/v2"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Header is the propagation header, per the W3C Trace Context spec.
const Header = "traceparent"

// Defaults for Config.
const (
	DefaultSampleEvery   = 16
	DefaultSlowThreshold = 250 * time.Millisecond
	DefaultRingSize      = 256
	DefaultMaxSpans      = 64
)

// TraceID identifies one end-to-end request across processes.
type TraceID [16]byte

// IsZero reports the invalid all-zero ID.
func (t TraceID) IsZero() bool { return t == TraceID{} }

func (t TraceID) String() string { return hex.EncodeToString(t[:]) }

// SpanID identifies one span within a trace.
type SpanID [8]byte

// IsZero reports the invalid all-zero ID.
func (s SpanID) IsZero() bool { return s == SpanID{} }

func (s SpanID) String() string { return hex.EncodeToString(s[:]) }

// SpanContext is the propagated part of a span: who the trace is, who
// the current span is, and whether the head sampler kept it.
type SpanContext struct {
	TraceID TraceID
	SpanID  SpanID
	Sampled bool
}

// Valid reports a usable (non-zero) context.
func (sc SpanContext) Valid() bool { return !sc.TraceID.IsZero() && !sc.SpanID.IsZero() }

// Traceparent renders the context in W3C form:
// "00-<32 hex trace id>-<16 hex span id>-<2 hex flags>".
func (sc SpanContext) Traceparent() string {
	b := make([]byte, 0, 55)
	b = append(b, '0', '0', '-')
	b = hex.AppendEncode(b, sc.TraceID[:])
	b = append(b, '-')
	b = hex.AppendEncode(b, sc.SpanID[:])
	if sc.Sampled {
		b = append(b, '-', '0', '1')
	} else {
		b = append(b, '-', '0', '0')
	}
	return string(b)
}

// ParseTraceparent decodes a W3C traceparent header. Unknown versions,
// malformed fields, and all-zero IDs are rejected (ok=false) — a
// hostile or garbled header silently starts a fresh trace instead of
// poisoning anything.
func ParseTraceparent(h string) (SpanContext, bool) {
	// version "00": "00-" + 32 + "-" + 16 + "-" + 2 = 55 bytes.
	if len(h) != 55 || h[0] != '0' || h[1] != '0' || h[2] != '-' || h[35] != '-' || h[52] != '-' {
		return SpanContext{}, false
	}
	var sc SpanContext
	if _, err := hex.Decode(sc.TraceID[:], []byte(h[3:35])); err != nil {
		return SpanContext{}, false
	}
	if _, err := hex.Decode(sc.SpanID[:], []byte(h[36:52])); err != nil {
		return SpanContext{}, false
	}
	var flags [1]byte
	if _, err := hex.Decode(flags[:], []byte(h[53:55])); err != nil {
		return SpanContext{}, false
	}
	if !sc.Valid() {
		return SpanContext{}, false
	}
	sc.Sampled = flags[0]&1 != 0
	return sc, true
}

// Attr is one span annotation. Values are strings so the dump JSON
// stays trivially stable; use Int for numbers.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// String builds a string attribute.
func String(k, v string) Attr { return Attr{Key: k, Value: v} }

// Int builds an integer attribute.
func Int(k string, v int) Attr { return Attr{Key: k, Value: strconv.Itoa(v)} }

// Config tunes a Tracer. The zero value means "all defaults".
type Config struct {
	// SampleEvery head-samples 1 in N locally-minted traces (1 = every
	// trace, 0 = DefaultSampleEvery, negative = never sample — IDs are
	// still minted and propagated, only recording is off).
	SampleEvery int
	// SlowThreshold is the always-sample escape hatch: an unsampled
	// operation at least this slow is recorded anyway, as a root-only
	// trace (0 = DefaultSlowThreshold, negative = disabled).
	SlowThreshold time.Duration
	// RingSize bounds how many recent traces are retained (0 =
	// DefaultRingSize).
	RingSize int
	// MaxSpans bounds spans kept per trace; extras are counted as
	// dropped (0 = DefaultMaxSpans).
	MaxSpans int
}

// Tracer records spans into a bounded ring of recent traces. Safe for
// concurrent use; a nil *Tracer no-ops everywhere.
type Tracer struct {
	sampleEvery int
	slow        time.Duration
	maxSpans    int

	minted atomic.Uint64 // locally-minted root counter for 1-in-N sampling

	mu    sync.Mutex
	ring  []*traceEntry // fixed capacity, nil until used
	next  int           // ring slot the next new trace takes
	index map[TraceID]*traceEntry
}

// traceEntry accumulates the recorded spans of one trace.
type traceEntry struct {
	id      TraceID
	spans   []spanData
	dropped int
}

type spanData struct {
	spanID SpanID
	parent SpanID
	name   string
	start  time.Time
	dur    time.Duration
	attrs  []Attr
}

// New builds a Tracer from cfg (zero value = defaults).
func New(cfg Config) *Tracer {
	if cfg.SampleEvery == 0 {
		cfg.SampleEvery = DefaultSampleEvery
	}
	if cfg.SlowThreshold == 0 {
		cfg.SlowThreshold = DefaultSlowThreshold
	}
	if cfg.RingSize <= 0 {
		cfg.RingSize = DefaultRingSize
	}
	if cfg.MaxSpans <= 0 {
		cfg.MaxSpans = DefaultMaxSpans
	}
	return &Tracer{
		sampleEvery: cfg.SampleEvery,
		slow:        cfg.SlowThreshold,
		maxSpans:    cfg.MaxSpans,
		ring:        make([]*traceEntry, cfg.RingSize),
		index:       make(map[TraceID]*traceEntry, cfg.RingSize),
	}
}

// Slow reports whether d crosses the always-sample threshold.
func (t *Tracer) Slow(d time.Duration) bool {
	return t != nil && t.slow > 0 && d >= t.slow
}

// shouldSample is the head sampler for locally-minted roots: a
// deterministic 1-in-N over a shared counter (every Nth root), so unit
// tests and benchmarks see an exact rate rather than a coin flip.
func (t *Tracer) shouldSample() bool {
	if t == nil || t.sampleEvery <= 0 {
		return false
	}
	if t.sampleEvery == 1 {
		return true
	}
	return t.minted.Add(1)%uint64(t.sampleEvery) == 0
}

func newTraceID() TraceID {
	var id TraceID
	for id.IsZero() {
		putUint64(id[0:8], rand.Uint64())
		putUint64(id[8:16], rand.Uint64())
	}
	return id
}

func newSpanID() SpanID {
	var id SpanID
	for id.IsZero() {
		putUint64(id[:], rand.Uint64())
	}
	return id
}

func putUint64(b []byte, v uint64) {
	_ = b[7]
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (56 - 8*i))
	}
}

// Span is one in-flight timed operation. Nil-safe: a nil *Span (the
// not-recording case) no-ops on every method, so call sites never
// branch.
type Span struct {
	tr     *Tracer
	sc     SpanContext
	parent SpanID
	name   string
	start  time.Time
	attrs  []Attr
}

// Context returns the span's propagation context (zero for nil).
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return s.sc
}

// SetName renames the span — the serve middleware uses it to stamp the
// matched route pattern, which the mux only knows after the handler
// ran.
func (s *Span) SetName(name string) {
	if s != nil {
		s.name = name
	}
}

// SetAttr appends one annotation.
func (s *Span) SetAttr(a Attr) {
	if s != nil {
		s.attrs = append(s.attrs, a)
	}
}

// End stamps the monotonic duration and records the span into the
// tracer's ring. Call exactly once; a nil span no-ops.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.tr.insert(s.sc.TraceID, spanData{
		spanID: s.sc.SpanID,
		parent: s.parent,
		name:   s.name,
		start:  s.start,
		dur:    time.Since(s.start),
		attrs:  s.attrs,
	})
}

// --- context propagation ---

type ctxKey struct{}

// ctxVal rides the context: the current span context always, the
// recording span only when the trace is sampled, and the tracer so
// child spans land in the right ring.
type ctxVal struct {
	sc   SpanContext
	span *Span
	tr   *Tracer
}

// FromContext returns the current span context (zero when the request
// is untraced) — the input to header injection and log stamping.
func FromContext(ctx context.Context) SpanContext {
	v, _ := ctx.Value(ctxKey{}).(ctxVal)
	return v.sc
}

// StartSpan begins a child span of the context's current span. When the
// trace is not being recorded (unsampled, or no tracer) it returns the
// context unchanged and a nil span — both safe to use.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	v, _ := ctx.Value(ctxKey{}).(ctxVal)
	if v.span == nil || v.tr == nil {
		return ctx, nil
	}
	child := &Span{
		tr:     v.tr,
		sc:     SpanContext{TraceID: v.sc.TraceID, SpanID: newSpanID(), Sampled: true},
		parent: v.sc.SpanID,
		name:   name,
		start:  time.Now(),
	}
	return context.WithValue(ctx, ctxKey{}, ctxVal{sc: child.sc, span: child, tr: v.tr}), child
}

// StartRoot mints a new local trace (head sampling applies) and begins
// its root span — the client-side entry point; servers continuing an
// incoming traceparent use StartRemote. The returned context carries
// the span context even when unsampled, so the traceparent still
// propagates (with the sampled flag off) and log lines still get IDs.
func (t *Tracer) StartRoot(ctx context.Context, name string) (context.Context, *Span) {
	if t == nil {
		return ctx, nil
	}
	return t.startRoot(ctx, SpanContext{TraceID: newTraceID(), Sampled: t.shouldSample()}, SpanID{}, name)
}

// StartRemote begins the server-side root span for a request that may
// carry a traceparent header. A valid header continues that trace —
// its sampling decision wins — with the header's span as parent; an
// absent or malformed one mints a fresh locally-sampled trace.
func (t *Tracer) StartRemote(ctx context.Context, traceparent, name string) (context.Context, *Span) {
	if t == nil {
		return ctx, nil
	}
	if parent, ok := ParseTraceparent(traceparent); ok {
		return t.startRoot(ctx, SpanContext{TraceID: parent.TraceID, Sampled: parent.Sampled}, parent.SpanID, name)
	}
	return t.startRoot(ctx, SpanContext{TraceID: newTraceID(), Sampled: t.shouldSample()}, SpanID{}, name)
}

func (t *Tracer) startRoot(ctx context.Context, sc SpanContext, parent SpanID, name string) (context.Context, *Span) {
	sc.SpanID = newSpanID()
	var sp *Span
	if sc.Sampled {
		sp = &Span{tr: t, sc: sc, parent: parent, name: name, start: time.Now()}
	}
	return context.WithValue(ctx, ctxKey{}, ctxVal{sc: sc, span: sp, tr: t}), sp
}

// --- out-of-band recording ---

// Record inserts an already-measured span into the ring under the
// given trace ID, bypassing head sampling — for callers that inherited
// the sampling decision from elsewhere: the replication follower whose
// trace ID arrived in a journal record, or the slow-request escape
// hatch. A zero parent marks a root-level span.
func (t *Tracer) Record(id TraceID, name string, parent SpanID, start time.Time, d time.Duration, attrs ...Attr) {
	if t == nil || id.IsZero() {
		return
	}
	t.insert(id, spanData{
		spanID: newSpanID(),
		parent: parent,
		name:   name,
		start:  start,
		dur:    d,
		attrs:  attrs,
	})
}

// RecordSlow applies the escape hatch: if d crosses SlowThreshold the
// span is recorded (under id, or a freshly minted trace when id is
// zero). Reports whether it recorded — the serve middleware keys its
// slow-request log off it.
func (t *Tracer) RecordSlow(id TraceID, name string, start time.Time, d time.Duration, attrs ...Attr) bool {
	if !t.Slow(d) {
		return false
	}
	if id.IsZero() {
		id = newTraceID()
	}
	t.Record(id, name, SpanID{}, start, d, attrs...)
	return true
}

// RecordRoot records one complete span as its own new trace, subject to
// head sampling and the slow escape hatch — for operations outside any
// request, like the WAL's group-commit fsync rounds.
func (t *Tracer) RecordRoot(name string, start time.Time, d time.Duration, attrs ...Attr) {
	if t == nil {
		return
	}
	if t.shouldSample() || t.Slow(d) {
		t.Record(newTraceID(), name, SpanID{}, start, d, attrs...)
	}
}

// insert files one finished span under its trace, creating (and, at
// capacity, evicting the oldest) ring entry as needed.
func (t *Tracer) insert(id TraceID, sd spanData) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	e := t.index[id]
	if e == nil {
		e = &traceEntry{id: id, spans: make([]spanData, 0, 4)}
		if old := t.ring[t.next]; old != nil {
			delete(t.index, old.id)
		}
		t.ring[t.next] = e
		t.next = (t.next + 1) % len(t.ring)
		t.index[id] = e
	}
	if len(e.spans) >= t.maxSpans {
		e.dropped++
		return
	}
	e.spans = append(e.spans, sd)
}

// --- logging ---

// Logger returns base with trace_id/span_id attributes from the
// context's span context, so request-scoped log lines join the trace.
// Without a span context (or with a nil base) base is returned as-is.
func Logger(ctx context.Context, base *slog.Logger) *slog.Logger {
	sc := FromContext(ctx)
	if base == nil || !sc.Valid() {
		return base
	}
	return base.With("trace_id", sc.TraceID.String(), "span_id", sc.SpanID.String())
}
