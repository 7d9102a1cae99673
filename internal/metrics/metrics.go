// Package metrics is a dependency-free Prometheus instrumentation
// layer: counters, gauges, and fixed-bucket histograms, optionally
// grouped into labeled families, registered against a Registry that
// renders the Prometheus text exposition format (version 0.0.4) for a
// GET /metrics endpoint.
//
// The package is built for hot paths. Every instrument is a handful of
// machine words updated with atomics — no locks, no maps, and no
// allocation on the observation path. Labeled families pay one
// mutex-guarded map lookup at With() time only; callers resolve their
// child once and keep the pointer, so the per-event cost is identical
// to the unlabeled case. Histogram buckets are fixed at construction
// and stored as a flat slice of atomic counters, so Observe is a short
// linear scan plus two atomic adds.
//
// Everything is nil-safe: methods on a nil Registry, Counter, Gauge, or
// Histogram are no-ops, and constructors on a nil Registry return nil.
// A server built without metrics passes a nil Registry through the same
// instrumentation code and pays only a branch per event.
//
// CounterFunc and GaugeFunc register callback-backed series evaluated
// at render time. internal/schedd uses them for every fleet-derived
// quantity (queue depth, submitted/missed counts, emissions), which
// guarantees GET /metrics and GET /v1/stats can never disagree: both
// read the same O(shards) incremental counters.
package metrics

import (
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing integer.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float64 that can go up and down.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Add adds delta with a CAS loop (safe for concurrent adders).
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into fixed buckets. Buckets are chosen
// at construction and never reallocated, so Observe is lock-free: a
// linear scan over the (short, cache-resident) upper-bound slice, one
// atomic bucket increment, and one CAS-loop float add for the sum.
type Histogram struct {
	upper  []float64 // ascending upper bounds; +Inf is implicit
	counts []atomic.Uint64
	sum    Gauge
	count  atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.upper) && v > h.upper[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// Count returns the total number of observations (0 on nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum.Value()
}

// DefLatencyBuckets is the default histogram layout for latencies in
// seconds: 500µs to 10s, the band an HTTP submit or a WAL fsync lives
// in. The 0.05 bound exists so the "fsync p99 > 50ms" alert has an
// exact bucket edge to sit on.
var DefLatencyBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// DefSizeBuckets is the default layout for small-integer sizes (batch
// sizes, record counts): powers of two from 1 to 1024.
var DefSizeBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}

// metric kinds for rendering.
const (
	kindCounter   = "counter"
	kindGauge     = "gauge"
	kindHistogram = "histogram"
)

// child is one labeled series inside a family.
type child struct {
	labels string // rendered {k="v",...} including braces; "" if unlabeled
	c      *Counter
	g      *Gauge
	h      *Histogram
	fn     func() float64
}

// family is one metric name: HELP/TYPE plus its series.
type family struct {
	name, help, kind string
	labelNames       []string
	buckets          []float64

	mu       sync.Mutex
	order    []string
	children map[string]*child
}

// Registry holds registered families and renders them. Registration
// (New*, With) takes a lock; observation never does.
type Registry struct {
	mu       sync.Mutex
	order    []*family
	byName   map[string]*family
	renderMu sync.Mutex
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// register creates (or panics on conflicting re-registration of) a
// family. Registering the same name with the same shape returns the
// existing family, so idempotent wiring is safe.
func (r *Registry) register(name, help, kind string, labelNames []string, buckets []float64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.byName[name]; ok {
		if f.kind != kind || strings.Join(f.labelNames, ",") != strings.Join(labelNames, ",") {
			panic(fmt.Sprintf("metrics: %s re-registered as %s%v, was %s%v",
				name, kind, labelNames, f.kind, f.labelNames))
		}
		return f
	}
	f := &family{
		name: name, help: help, kind: kind,
		labelNames: labelNames, buckets: buckets,
		children: make(map[string]*child),
	}
	r.byName[name] = f
	r.order = append(r.order, f)
	return f
}

func (f *family) get(labelValues []string, mk func() *child) *child {
	if len(labelValues) != len(f.labelNames) {
		panic(fmt.Sprintf("metrics: %s wants %d label values, got %d",
			f.name, len(f.labelNames), len(labelValues)))
	}
	key := labelKey(f.labelNames, labelValues)
	f.mu.Lock()
	defer f.mu.Unlock()
	if ch, ok := f.children[key]; ok {
		return ch
	}
	ch := mk()
	ch.labels = key
	f.children[key] = ch
	f.order = append(f.order, key)
	return ch
}

// labelKey renders {k="v",...} with escaped values; "" for no labels.
func labelKey(names, values []string) string {
	if len(names) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabel escapes a label value per the text format: backslash,
// double quote, and newline.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, c := range v {
		switch c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(c)
		}
	}
	return b.String()
}

// escapeHelp escapes a HELP string: backslash and newline.
func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// NewCounter registers (or returns) an unlabeled counter.
func (r *Registry) NewCounter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	f := r.register(name, help, kindCounter, nil, nil)
	return f.get(nil, func() *child { return &child{c: &Counter{}} }).c
}

// NewGauge registers (or returns) an unlabeled gauge.
func (r *Registry) NewGauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	f := r.register(name, help, kindGauge, nil, nil)
	return f.get(nil, func() *child { return &child{g: &Gauge{}} }).g
}

// NewHistogram registers (or returns) an unlabeled histogram with the
// given ascending upper bounds (nil = DefLatencyBuckets).
func (r *Registry) NewHistogram(name, help string, buckets []float64) *Histogram {
	if r == nil {
		return nil
	}
	if buckets == nil {
		buckets = DefLatencyBuckets
	}
	f := r.register(name, help, kindHistogram, nil, buckets)
	return f.get(nil, func() *child { return &child{h: newHistogram(buckets)} }).h
}

func newHistogram(buckets []float64) *Histogram {
	return &Histogram{upper: buckets, counts: make([]atomic.Uint64, len(buckets)+1)}
}

// NewCounterFunc registers a counter whose value is computed by fn at
// render time — for monotone quantities another subsystem already
// counts (the schedd fleet's submitted/completed/missed totals).
func (r *Registry) NewCounterFunc(name, help string, fn func() float64) {
	if r == nil {
		return
	}
	f := r.register(name, help, kindCounter, nil, nil)
	f.get(nil, func() *child { return &child{fn: fn} })
}

// NewGaugeFunc registers a gauge computed by fn at render time.
func (r *Registry) NewGaugeFunc(name, help string, fn func() float64) {
	if r == nil {
		return
	}
	f := r.register(name, help, kindGauge, nil, nil)
	f.get(nil, func() *child { return &child{fn: fn} })
}

// CounterVec is a family of counters distinguished by label values.
type CounterVec struct{ f *family }

// NewCounterVec registers a labeled counter family.
func (r *Registry) NewCounterVec(name, help string, labelNames ...string) *CounterVec {
	if r == nil {
		return nil
	}
	return &CounterVec{r.register(name, help, kindCounter, labelNames, nil)}
}

// With resolves the child for the given label values, creating it on
// first use. Resolve once and keep the pointer on hot paths.
func (v *CounterVec) With(labelValues ...string) *Counter {
	if v == nil {
		return nil
	}
	return v.f.get(labelValues, func() *child { return &child{c: &Counter{}} }).c
}

// GaugeVec is a family of gauges distinguished by label values.
type GaugeVec struct{ f *family }

// NewGaugeVec registers a labeled gauge family.
func (r *Registry) NewGaugeVec(name, help string, labelNames ...string) *GaugeVec {
	if r == nil {
		return nil
	}
	return &GaugeVec{r.register(name, help, kindGauge, labelNames, nil)}
}

// With resolves the child gauge for the given label values.
func (v *GaugeVec) With(labelValues ...string) *Gauge {
	if v == nil {
		return nil
	}
	return v.f.get(labelValues, func() *child { return &child{g: &Gauge{}} }).g
}

// WriteTo renders the registry in the Prometheus text exposition
// format: families in registration order, series within a family in
// sorted label order (deterministic output for golden tests and
// scrape-assertion diffs).
func (r *Registry) WriteTo(w writer) error {
	if r == nil {
		return nil
	}
	r.renderMu.Lock()
	defer r.renderMu.Unlock()
	r.mu.Lock()
	fams := append([]*family(nil), r.order...)
	r.mu.Unlock()
	var b []byte
	for _, f := range fams {
		b = f.render(b[:0])
		if _, err := w.Write(b); err != nil {
			return err
		}
	}
	return nil
}

// writer is the io.Writer subset WriteTo needs (avoids importing io
// into every caller's mental model; any io.Writer satisfies it).
type writer interface{ Write(p []byte) (int, error) }

func (f *family) render(b []byte) []byte {
	f.mu.Lock()
	keys := append([]string(nil), f.order...)
	children := make([]*child, len(keys))
	for i, k := range keys {
		children[i] = f.children[k]
	}
	f.mu.Unlock()
	sort.Slice(children, func(i, j int) bool { return children[i].labels < children[j].labels })

	b = append(b, "# HELP "...)
	b = append(b, f.name...)
	b = append(b, ' ')
	b = append(b, escapeHelp(f.help)...)
	b = append(b, "\n# TYPE "...)
	b = append(b, f.name...)
	b = append(b, ' ')
	b = append(b, f.kind...)
	b = append(b, '\n')
	for _, ch := range children {
		switch {
		case ch.h != nil:
			b = ch.renderHistogram(b, f)
		case ch.c != nil:
			b = appendSeries(b, f.name, ch.labels, float64(ch.c.Value()))
		case ch.g != nil:
			b = appendSeries(b, f.name, ch.labels, ch.g.Value())
		case ch.fn != nil:
			b = appendSeries(b, f.name, ch.labels, ch.fn())
		}
	}
	return b
}

// renderHistogram emits cumulative _bucket series plus _sum and _count.
func (ch *child) renderHistogram(b []byte, f *family) []byte {
	h := ch.h
	var cum uint64
	for i, upper := range h.upper {
		cum += h.counts[i].Load()
		b = appendBucket(b, f.name, ch.labels, formatFloat(upper), cum)
	}
	cum += h.counts[len(h.upper)].Load()
	b = appendBucket(b, f.name, ch.labels, "+Inf", cum)
	b = appendSeries(b, f.name+"_sum", ch.labels, h.Sum())
	b = appendSeries(b, f.name+"_count", ch.labels, float64(cum))
	return b
}

func appendBucket(b []byte, name, labels, le string, v uint64) []byte {
	b = append(b, name...)
	b = append(b, "_bucket"...)
	if labels == "" {
		b = append(b, `{le="`...)
	} else {
		b = append(b, labels[:len(labels)-1]...) // drop closing brace
		b = append(b, `,le="`...)
	}
	b = append(b, le...)
	b = append(b, `"} `...)
	b = strconv.AppendUint(b, v, 10)
	return append(b, '\n')
}

func appendSeries(b []byte, name, labels string, v float64) []byte {
	b = append(b, name...)
	b = append(b, labels...)
	b = append(b, ' ')
	b = append(b, formatFloat(v)...)
	return append(b, '\n')
}

// formatFloat renders a sample value: integers without an exponent or
// decimal point, everything else in Go's shortest 'g' form.
func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatFloat(v, 'f', -1, 64)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Handler returns the GET /metrics endpoint for this registry.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WriteTo(w)
	})
}
