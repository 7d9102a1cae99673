package tracing

import (
	"context"
	"encoding/json"
	"log/slog"
	"math/rand/v2"
	"net/http/httptest"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestTraceparentRoundTrip(t *testing.T) {
	tr := New(Config{SampleEvery: 1})
	ctx, sp := tr.StartRoot(context.Background(), "root")
	sc := FromContext(ctx)
	if !sc.Valid() || !sc.Sampled {
		t.Fatalf("StartRoot with SampleEvery=1 must yield a valid sampled context, got %+v", sc)
	}
	if sp == nil {
		t.Fatal("sampled root span must be non-nil")
	}
	h := sc.Traceparent()
	if len(h) != 55 || !strings.HasPrefix(h, "00-") || !strings.HasSuffix(h, "-01") {
		t.Fatalf("traceparent %q is not W3C-shaped", h)
	}
	got, ok := ParseTraceparent(h)
	if !ok || got != sc {
		t.Fatalf("round trip: got %+v ok=%v, want %+v", got, ok, sc)
	}
}

func TestParseTraceparentRejectsGarbage(t *testing.T) {
	for _, h := range []string{
		"",
		"00-abc",
		"00-" + strings.Repeat("0", 32) + "-" + strings.Repeat("a", 16) + "-01", // zero trace id
		"00-" + strings.Repeat("a", 32) + "-" + strings.Repeat("0", 16) + "-01", // zero span id
		"01-" + strings.Repeat("a", 32) + "-" + strings.Repeat("b", 16) + "-01", // unknown version
		"00-" + strings.Repeat("g", 32) + "-" + strings.Repeat("b", 16) + "-01", // not hex
		"00-" + strings.Repeat("a", 32) + "-" + strings.Repeat("b", 16) + "-zz",
		"00-" + strings.Repeat("a", 32) + "_" + strings.Repeat("b", 16) + "-01", // bad separator
	} {
		if _, ok := ParseTraceparent(h); ok {
			t.Errorf("ParseTraceparent(%q) = ok, want rejected", h)
		}
	}
	// Unsampled flag parses as Sampled=false.
	sc, ok := ParseTraceparent("00-" + strings.Repeat("a", 32) + "-" + strings.Repeat("b", 16) + "-00")
	if !ok || sc.Sampled {
		t.Fatalf("unsampled traceparent: got %+v ok=%v", sc, ok)
	}
}

func TestHeadSamplingDeterministic(t *testing.T) {
	tr := New(Config{SampleEvery: 4})
	sampled := 0
	for i := 0; i < 400; i++ {
		_, sp := tr.StartRoot(context.Background(), "r")
		if sp != nil {
			sampled++
			sp.End()
		}
	}
	if sampled != 100 {
		t.Fatalf("1-in-4 sampling over 400 roots recorded %d, want exactly 100", sampled)
	}
	// Negative disables sampling but still propagates IDs.
	off := New(Config{SampleEvery: -1})
	ctx, sp := off.StartRoot(context.Background(), "r")
	if sp != nil {
		t.Fatal("SampleEvery<0 must never record")
	}
	if sc := FromContext(ctx); !sc.Valid() || sc.Sampled {
		t.Fatalf("disabled sampling must still mint an unsampled context, got %+v", sc)
	}
}

func TestRemoteSamplingDecisionWins(t *testing.T) {
	tr := New(Config{SampleEvery: -1}) // local sampler says never
	parent := SpanContext{TraceID: TraceID{1}, SpanID: SpanID{2}, Sampled: true}
	ctx, sp := tr.StartRemote(context.Background(), parent.Traceparent(), "srv")
	if sp == nil {
		t.Fatal("a sampled incoming traceparent must record regardless of the local sampler")
	}
	if sc := FromContext(ctx); sc.TraceID != parent.TraceID {
		t.Fatalf("remote trace id not continued: got %v want %v", sc.TraceID, parent.TraceID)
	}
	sp.End()
	dump := tr.Snapshot()
	if len(dump.Traces) != 1 || dump.Traces[0].TraceID != parent.TraceID.String() {
		t.Fatalf("dump = %+v, want one trace under the remote id", dump)
	}
	// The remote parent is foreign here, so the span still reads as root.
	if dump.Traces[0].Root != "srv" {
		t.Fatalf("root = %q, want srv", dump.Traces[0].Root)
	}

	// An unsampled incoming header stays unsampled.
	parent.Sampled = false
	_, sp = tr.StartRemote(context.Background(), parent.Traceparent(), "srv")
	if sp != nil {
		t.Fatal("unsampled traceparent must not record")
	}
}

func TestChildSpansAndWaterfall(t *testing.T) {
	tr := New(Config{SampleEvery: 1})
	ctx, root := tr.StartRoot(context.Background(), "POST /v1/jobs")
	cctx, child := StartSpan(ctx, "decode")
	child.SetAttr(Int("bytes", 42))
	_, grand := StartSpan(cctx, "inner")
	grand.End()
	child.End()
	root.End()

	dump := tr.Snapshot()
	if len(dump.Traces) != 1 {
		t.Fatalf("want 1 trace, got %d", len(dump.Traces))
	}
	td := dump.Traces[0]
	if td.Root != "POST /v1/jobs" || len(td.Spans) != 3 {
		t.Fatalf("trace = %+v, want root POST /v1/jobs with 3 spans", td)
	}
	byName := map[string]SpanDump{}
	for _, s := range td.Spans {
		byName[s.Name] = s
	}
	rootSpan := byName["POST /v1/jobs"]
	if rootSpan.ParentID != "" {
		t.Fatalf("root parent = %q, want none", rootSpan.ParentID)
	}
	if byName["decode"].ParentID != rootSpan.SpanID {
		t.Fatal("decode span must be parented to the root")
	}
	if byName["inner"].ParentID != byName["decode"].SpanID {
		t.Fatal("inner span must be parented to decode")
	}
	if len(byName["decode"].Attrs) != 1 || byName["decode"].Attrs[0] != (Attr{Key: "bytes", Value: "42"}) {
		t.Fatalf("decode attrs = %+v", byName["decode"].Attrs)
	}
}

func TestStartSpanWithoutRecordingIsNil(t *testing.T) {
	// No tracer in the context at all.
	if _, sp := StartSpan(context.Background(), "x"); sp != nil {
		t.Fatal("StartSpan without a trace must return nil")
	}
	// Unsampled root: children are nil too.
	tr := New(Config{SampleEvery: -1})
	ctx, _ := tr.StartRoot(context.Background(), "r")
	if _, sp := StartSpan(ctx, "x"); sp != nil {
		t.Fatal("StartSpan under an unsampled root must return nil")
	}
}

// spanContext is sp's propagation context, zero for a nil span.
func spanContext(sp *Span) SpanContext {
	if sp == nil {
		return SpanContext{}
	}
	return sp.sc
}

func TestNilSafety(t *testing.T) {
	var tr *Tracer
	ctx, sp := tr.StartRoot(context.Background(), "r")
	if sp != nil || FromContext(ctx).Valid() {
		t.Fatal("nil tracer must be inert")
	}
	_, sp = tr.StartRemote(ctx, "", "r")
	sp.End()
	sp.SetName("x")
	sp.SetAttr(Attr{Key: "k", Value: "v"})
	if spanContext(sp).Valid() {
		t.Fatal("nil span context must be zero")
	}
	tr.Record(TraceID{1}, "x", SpanID{}, time.Now(), time.Second)
	tr.RecordRoot("x", time.Now(), time.Second)
	tr.RecordSlow(TraceID{}, "x", time.Now(), time.Hour)
	if tr.Slow(time.Hour) {
		t.Fatal("nil tracer is never slow")
	}
	if d := tr.Snapshot(); len(d.Traces) != 0 {
		t.Fatal("nil tracer snapshot must be empty")
	}
	rr := httptest.NewRecorder()
	tr.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/debug/traces", nil))
	if rr.Code != 200 {
		t.Fatalf("nil tracer handler status %d", rr.Code)
	}
}

func TestRingBoundsAndEviction(t *testing.T) {
	tr := New(Config{SampleEvery: 1, RingSize: 4})
	var first TraceID
	for i := 0; i < 10; i++ {
		_, sp := tr.StartRoot(context.Background(), "r")
		if i == 0 {
			first = sp.sc.TraceID
		}
		sp.End()
	}
	dump := tr.Snapshot()
	if len(dump.Traces) != 4 {
		t.Fatalf("ring of 4 holds %d traces", len(dump.Traces))
	}
	for _, td := range dump.Traces {
		if td.TraceID == first.String() {
			t.Fatal("oldest trace must have been evicted")
		}
	}
}

func TestMaxSpansDropped(t *testing.T) {
	tr := New(Config{SampleEvery: 1})
	ctx, root := tr.StartRoot(context.Background(), "r")
	for i := 0; i < DefaultMaxSpans+3; i++ {
		_, sp := StartSpan(ctx, "child")
		sp.End()
	}
	root.End()
	td := tr.Snapshot().Traces[0]
	// The root ends last, so it is dropped with the last three children.
	if len(td.Spans) != DefaultMaxSpans || td.DroppedSpans != 4 {
		t.Fatalf("kept %d spans, dropped %d; want %d kept / 4 dropped", len(td.Spans), td.DroppedSpans, DefaultMaxSpans)
	}
}

func TestSlowEscapeHatch(t *testing.T) {
	tr := New(Config{SampleEvery: -1, SlowThreshold: 10 * time.Millisecond})
	start := time.Now().Add(-20 * time.Millisecond)
	if tr.RecordSlow(TraceID{}, "GET /v1/stats", start, 5*time.Millisecond) {
		t.Fatal("a fast operation must not trip the slow hatch")
	}
	id := TraceID{7}
	if !tr.RecordSlow(id, "GET /v1/stats", start, 20*time.Millisecond) {
		t.Fatal("a slow unsampled operation must be recorded")
	}
	dump := tr.Snapshot()
	if len(dump.Traces) != 1 || dump.Traces[0].TraceID != id.String() || dump.Traces[0].Root != "GET /v1/stats" {
		t.Fatalf("slow hatch dump = %+v", dump)
	}
	// RecordRoot honors the hatch even with sampling off.
	tr.RecordRoot("wal.group_commit", start, 50*time.Millisecond, Int("batch", 9))
	if got := len(tr.Snapshot().Traces); got != 2 {
		t.Fatalf("slow RecordRoot must record; have %d traces", got)
	}
	tr.RecordRoot("wal.group_commit", start, time.Millisecond)
	if got := len(tr.Snapshot().Traces); got != 2 {
		t.Fatalf("fast unsampled RecordRoot must not record; have %d traces", got)
	}
}

func TestCrossProcessJoin(t *testing.T) {
	// The follower side: spans recorded under a trace ID minted
	// elsewhere join that trace in this tracer's ring.
	primary := New(Config{SampleEvery: 1})
	follower := New(Config{SampleEvery: -1})
	ctx, root := primary.StartRoot(context.Background(), "POST /v1/jobs")
	_, child := StartSpan(ctx, "wal.append")
	child.End()
	root.End()

	tid := root.sc.TraceID
	follower.Record(tid, "repl.apply", SpanID{}, time.Now(), 3*time.Millisecond, Int("jobs", 2))

	fd := follower.Snapshot()
	if len(fd.Traces) != 1 || fd.Traces[0].TraceID != tid.String() {
		t.Fatalf("follower dump = %+v, want the primary's trace id", fd)
	}
	if fd.Traces[0].Root != "repl.apply" {
		t.Fatalf("follower root = %q", fd.Traces[0].Root)
	}
}

func TestHandlerFilters(t *testing.T) {
	tr := New(Config{SampleEvery: 1})
	mk := func(name string, dur time.Duration) TraceID {
		id := newTraceID()
		tr.Record(id, name, SpanID{}, time.Now(), dur)
		return id
	}
	slow := mk("POST /v1/jobs", 80*time.Millisecond)
	mk("POST /v1/jobs", 2*time.Millisecond)
	mk("GET /v1/stats", 90*time.Millisecond)

	get := func(query string) Dump {
		rr := httptest.NewRecorder()
		tr.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/debug/traces"+query, nil))
		if rr.Code != 200 {
			t.Fatalf("GET /debug/traces%s: status %d", query, rr.Code)
		}
		var d Dump
		if err := json.Unmarshal(rr.Body.Bytes(), &d); err != nil {
			t.Fatalf("response does not parse: %v", err)
		}
		return d
	}

	if d := get(""); len(d.Traces) != 3 {
		t.Fatalf("unfiltered: %d traces, want 3", len(d.Traces))
	}
	if d := get("?route=POST+%2Fv1%2Fjobs"); len(d.Traces) != 2 {
		t.Fatalf("route filter: %d traces, want 2", len(d.Traces))
	}
	if d := get("?route=POST+%2Fv1%2Fjobs&min_ms=50"); len(d.Traces) != 1 || d.Traces[0].TraceID != slow.String() {
		t.Fatalf("route+min_ms filter: %+v, want only the slow submit", d.Traces)
	}
	if d := get("?trace_id=" + slow.String()); len(d.Traces) != 1 || d.Traces[0].TraceID != slow.String() {
		t.Fatalf("trace_id filter: %+v", d.Traces)
	}
	if d := get("?limit=1"); len(d.Traces) != 1 {
		t.Fatalf("limit: %d traces, want 1", len(d.Traces))
	}
}

func TestLoggerStampsIDs(t *testing.T) {
	var buf strings.Builder
	base := slog.New(slog.NewTextHandler(&buf, nil))
	tr := New(Config{SampleEvery: 1})
	ctx, sp := tr.StartRoot(context.Background(), "r")
	Logger(ctx, base).Info("hello")
	sp.End()
	sc := FromContext(ctx)
	out := buf.String()
	if !strings.Contains(out, "trace_id="+sc.TraceID.String()) || !strings.Contains(out, "span_id="+sc.SpanID.String()) {
		t.Fatalf("log line missing trace/span ids: %q", out)
	}
	// No span context: the base logger comes back untouched.
	if got := Logger(context.Background(), base); got != base {
		t.Fatal("Logger without a span context must return base unchanged")
	}
}

// refRing is the ring as it stood before retained traces moved into
// tracer-owned chunks: one heap entry per trace, its spans in a slice,
// each span's attrs as the caller passed them. TestRingMatchesReference
// holds the chunked ring to it.
type refRing struct {
	ring  []*refEntry
	next  int
	index map[TraceID]*refEntry
}

type refEntry struct {
	id      TraceID
	spans   []spanData
	dropped int
}

func newRefRing(size int) *refRing {
	return &refRing{ring: make([]*refEntry, size), index: make(map[TraceID]*refEntry, size)}
}

func (r *refRing) insert(id TraceID, sd spanData) {
	e := r.index[id]
	if e == nil {
		e = &refEntry{id: id, spans: make([]spanData, 0, 4)}
		if old := r.ring[r.next]; old != nil {
			delete(r.index, old.id)
		}
		r.ring[r.next] = e
		r.next = (r.next + 1) % len(r.ring)
		r.index[id] = e
	}
	if len(e.spans) >= DefaultMaxSpans {
		e.dropped++
		return
	}
	e.spans = append(e.spans, sd)
}

func (r *refRing) snapshot() Dump {
	dump := Dump{Traces: []TraceDump{}}
	for _, e := range r.ring {
		if e != nil {
			dump.Traces = append(dump.Traces, dumpEntry(e.id, e.spans, e.dropped))
		}
	}
	sort.Slice(dump.Traces, func(i, j int) bool {
		return dump.Traces[i].Start.After(dump.Traces[j].Start)
	})
	return dump
}

// kept returns what tr stored last under id: the span ID a recording
// call minted and the duration End measured, the two inputs a caller
// cannot know. Every other input the test hands the reference itself.
func kept(tr *Tracer, id TraceID) (SpanID, time.Duration) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	e := tr.entry(tr.index[id])
	rec := e.tail.c.spans[e.tail.i]
	return rec.spanID, rec.dur
}

// newest returns the trace ID of the trace tr created last.
func newest(tr *Tracer) TraceID {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return tr.entry((tr.next + tr.size - 1) % tr.size).id
}

// checkLinks verifies the chunk store's links: each entry links as
// many spans as it counts, each within its chunk's used records, and
// no record an entry does not hold links anywhere, so an evicted trace
// keeps no chunk reachable.
func checkLinks(t *testing.T, tr *Tracer) {
	t.Helper()
	tr.mu.Lock()
	defer tr.mu.Unlock()
	held := map[spanRef]bool{}
	chunks := map[*chunk]bool{}
	if tr.cur != nil {
		chunks[tr.cur] = true
	}
	for _, block := range tr.ring {
		for i := range block {
			e := &block[i]
			n := 0
			for r := e.head; r.c != nil; r = r.c.spans[r.i].next {
				if r.i >= r.c.n {
					t.Fatalf("trace %v links record %d of a chunk using %d", e.id, r.i, r.c.n)
				}
				held[r], chunks[r.c] = true, true
				n++
			}
			if n != e.spans {
				t.Fatalf("trace %v links %d spans, counts %d", e.id, n, e.spans)
			}
		}
	}
	for c := range chunks {
		for i := range c.n {
			if !held[spanRef{c, i}] && c.spans[i].next.c != nil {
				t.Fatalf("record %d of a chunk belongs to no trace but links another", i)
			}
		}
	}
}

// TestRingMatchesReference drives the chunked ring and the reference
// through one seeded sequence — nested StartSpan/End, Record with
// attrs up to past a chunk's text, RecordSlow on both sides of the
// threshold, RecordRoot, traces of more than DefaultMaxSpans spans,
// and many times RingSize traces — and requires equal snapshots.
func TestRingMatchesReference(t *testing.T) {
	for _, size := range []int{DefaultRingSize, 37, 1} {
		t.Run(strconv.Itoa(size), func(t *testing.T) {
			rng := rand.New(rand.NewPCG(uint64(size), 65))
			tr := New(Config{SampleEvery: 1, SlowThreshold: time.Millisecond, RingSize: size})
			ref := newRefRing(size)
			base := time.Now()
			str := func(max int) string {
				b := make([]byte, rng.IntN(max+1))
				for i := range b {
					b[i] = byte('a' + rng.IntN(26))
				}
				return string(b)
			}
			attrs := func() []Attr {
				n := rng.IntN(4)
				if n == 0 {
					return nil
				}
				as := make([]Attr, n)
				for i := range as {
					as[i] = Attr{Key: str(12), Value: str(40)}
					if rng.IntN(200) == 0 {
						as[i].Value = str(3 * chunkText)
					}
				}
				return as
			}
			var ids []TraceID // traces recorded so far, oldest first
			pick := func() TraceID {
				if len(ids) == 0 || rng.IntN(3) == 0 {
					ids = append(ids, newTraceID())
					return ids[len(ids)-1]
				}
				return ids[len(ids)-1-rng.IntN(min(len(ids), size+size/2))]
			}
			var span func(ctx context.Context, depth int)
			span = func(ctx context.Context, depth int) {
				cctx, sp := StartSpan(ctx, str(16))
				for _, a := range attrs() {
					sp.SetAttr(a)
				}
				for n := rng.IntN(3); depth < 3 && n > 0; n-- {
					span(cctx, depth+1)
				}
				sd := spanData{spanID: sp.sc.SpanID, parent: sp.parent, name: sp.name, start: sp.start, attrs: sp.attrs}
				sp.End()
				_, sd.dur = kept(tr, sp.sc.TraceID)
				ref.insert(sp.sc.TraceID, sd)
			}
			for op := range 40*size + 2000 {
				start := base.Add(time.Duration(rng.IntN(1e9)))
				d := time.Duration(rng.IntN(2e6))
				switch k := rng.IntN(10); {
				case k < 4:
					id, name, as := pick(), str(20), attrs()
					sd := spanData{name: name, start: start, dur: d, attrs: as}
					if rng.IntN(2) == 0 {
						sd.parent = newSpanID()
					}
					tr.Record(id, name, sd.parent, start, d, as...)
					sd.spanID, _ = kept(tr, id)
					ref.insert(id, sd)
				case k < 6:
					id := TraceID{}
					if rng.IntN(2) == 0 {
						id = pick()
					}
					name, as := str(20), attrs()
					if tr.RecordSlow(id, name, start, d, as...) {
						if id.IsZero() {
							id = newest(tr)
						}
						sd := spanData{name: name, start: start, dur: d, attrs: as}
						sd.spanID, _ = kept(tr, id)
						ref.insert(id, sd)
					}
				case k < 7:
					name, as := str(20), attrs()
					tr.RecordRoot(name, start, d, as...)
					id := newest(tr)
					sd := spanData{name: name, start: start, dur: d, attrs: as}
					sd.spanID, _ = kept(tr, id)
					ref.insert(id, sd)
				default:
					name := str(20)
					ctx, root := tr.StartRoot(context.Background(), name)
					children := 1 + rng.IntN(4)
					if rng.IntN(20) == 0 {
						children = DefaultMaxSpans + rng.IntN(8)
					}
					for range children {
						span(ctx, 0)
					}
					sd := spanData{spanID: root.sc.SpanID, name: name, start: root.start, attrs: root.attrs}
					root.End()
					_, sd.dur = kept(tr, root.sc.TraceID)
					ref.insert(root.sc.TraceID, sd)
				}
				if op%50 == 0 {
					checkLinks(t, tr)
					if got, want := tr.Snapshot(), ref.snapshot(); !reflect.DeepEqual(got, want) {
						t.Fatalf("after op %d the snapshots differ:\n got %+v\nwant %+v", op, got, want)
					}
				}
			}
			checkLinks(t, tr)
			got, want := tr.Snapshot(), ref.snapshot()
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("the snapshots differ:\n got %+v\nwant %+v", got, want)
			}
			if len(got.Traces) != size {
				t.Fatalf("the ring holds %d traces, want %d", len(got.Traces), size)
			}
		})
	}
}

// TestRecordCopiesAttrs: a caller may reuse its attrs once the call
// returns; what the ring serves does not change with them.
func TestRecordCopiesAttrs(t *testing.T) {
	tr := New(Config{SampleEvery: 1})
	dump := func() string {
		rr := httptest.NewRecorder()
		tr.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/debug/traces", nil))
		return rr.Body.String()
	}
	attrs := []Attr{{Key: "jobs", Value: "64"}, Int("arrival_hour", 400)}
	tr.Record(newTraceID(), "repl.apply", SpanID{}, time.Now(), time.Millisecond, attrs...)
	_, sp := tr.StartRoot(context.Background(), "POST /v1/jobs")
	sp.SetAttr(Int("code", 200))
	sp.End()
	before := dump()
	if !strings.Contains(before, `"arrival_hour"`) || !strings.Contains(before, `"200"`) {
		t.Fatalf("the dump lacks the recorded attrs: %s", before)
	}
	attrs[0], attrs[1] = Attr{Key: "reused", Value: "x"}, Attr{Key: "reused", Value: "y"}
	sp.attrs[0] = Attr{Key: "reused", Value: "z"}
	if after := dump(); after != before {
		t.Fatalf("reusing the caller's attrs changed the dump:\nbefore %s\nafter  %s", before, after)
	}
}

// TestRecordAllocsAmortized: recording into a warm ring costs no heap
// object per span — records, text and ring entries live in storage the
// tracer reuses — so a chunk's allocation spreads over its spans.
func TestRecordAllocsAmortized(t *testing.T) {
	const spans = 6
	tr := New(Config{SampleEvery: 1})
	record := func(traces int) {
		start := time.Now()
		for range traces {
			id := newTraceID()
			for i := range spans {
				tr.Record(id, "schedd.admit", SpanID{}, start, time.Millisecond, Int("lock_wait_us", i))
			}
		}
	}
	record(3 * DefaultRingSize)
	const traces = 2000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	record(traces)
	runtime.ReadMemStats(&after)
	per := float64(after.Mallocs-before.Mallocs) / (traces * spans)
	if per > 0.1 {
		t.Fatalf("%.3f allocations per span recorded into a warm ring, want <= 0.1", per)
	}
	t.Logf("%.4f allocations per span", per)
}
