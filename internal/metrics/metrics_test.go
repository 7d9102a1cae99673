package metrics

import (
	"bytes"
	"math"
	"strings"
	"sync"
	"testing"

	"carbonshift/internal/golden"
)

// histogramVec registers a histogram family with one label and returns
// its child lookup: no production caller builds that shape, but the
// golden keeps it so a label on histogram series stays pinned.
func histogramVec(r *Registry, name, help string, buckets []float64, label string) func(value string) *Histogram {
	f := r.register(name, help, kindHistogram, []string{label}, buckets)
	return func(value string) *Histogram {
		return f.get([]string{value}, func() *child { return &child{h: newHistogram(f.buckets)} }).h
	}
}

// buildSampleRegistry assembles one of every instrument, including the
// escaping-hostile label values the renderer must quote.
func buildSampleRegistry() *Registry {
	r := NewRegistry()
	c := r.NewCounter("jobs_total", "Jobs admitted.")
	c.Add(41)
	c.Inc()
	g := r.NewGauge("queue_depth", "Queued jobs.")
	g.Set(7.5)
	g.Add(-0.5)
	r.NewGaugeFunc("fleet_hour", "Current replay hour.", func() float64 { return 123 })
	r.NewCounterFunc("emissions_grams_total", "Cumulative emissions.", func() float64 { return 1234.25 })

	cv := r.NewCounterVec("http_requests_total", "Requests by route and code.", "route", "code")
	cv.With("GET /v1/stats", "200").Add(3)
	cv.With("POST /v1/jobs", "503").Inc()
	cv.With(`weird"route`+"\n"+`\end`, "200").Inc()

	gv := r.NewGaugeVec("carbon_saved_grams", "Carbon saved vs origin baseline.", "policy")
	gv.With("carbon-gate").Set(987.5)

	h := r.NewHistogram("submit_seconds", "Submit latency.", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.005, 0.05, 0.5, 5} {
		h.Observe(v)
	}
	hv := histogramVec(r, "fsync_seconds", "Fsync latency.", []float64{0.001, 0.05}, "mode")
	hv("always").Observe(0.0004)
	hv("always").Observe(0.2)
	return r
}

// TestExpositionGolden pins the full rendered format: HELP/TYPE lines,
// label escaping, histogram cumulativity, sorted series order.
func TestExpositionGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := buildSampleRegistry().WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	golden.Check(t, "exposition.golden", buf.Bytes())
}

// TestHistogramCumulativity checks the rendered _bucket series are
// cumulative and +Inf equals _count.
func TestHistogramCumulativity(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("lat", "x", []float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 3, 100} {
		h.Observe(v)
	}
	var buf bytes.Buffer
	if err := r.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	s, err := ParseText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		`lat_bucket{le="1"}`:    2, // 0.5 and the on-boundary 1
		`lat_bucket{le="2"}`:    3,
		`lat_bucket{le="4"}`:    4,
		`lat_bucket{le="+Inf"}`: 5,
		`lat_count`:             5,
		`lat_sum`:               106,
	}
	for series, v := range want {
		got, ok := s.Value(series)
		if !ok {
			t.Fatalf("series %s missing from exposition", series)
		}
		if got != v {
			t.Errorf("%s = %v, want %v", series, got, v)
		}
	}
}

// TestLabelEscaping round-trips hostile label values through render
// and parse.
func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	cv := r.NewCounterVec("c", "x", "k")
	hostile := "a\\b\"c\nd"
	cv.With(hostile).Add(9)
	var buf bytes.Buffer
	if err := r.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	rendered := buf.String()
	if !strings.Contains(rendered, `c{k="a\\b\"c\nd"} 9`) {
		t.Fatalf("hostile label not escaped: %q", rendered)
	}
	s, err := ParseText(strings.NewReader(rendered))
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Sum("c"); got != 9 {
		t.Fatalf("Sum(c) = %v, want 9", got)
	}
}

// TestIdempotentRegistration: re-registering the same family returns
// the same underlying series (so layered wiring can't double-count),
// while a conflicting shape panics.
func TestIdempotentRegistration(t *testing.T) {
	r := NewRegistry()
	a := r.NewCounter("x_total", "first")
	b := r.NewCounter("x_total", "second")
	a.Inc()
	b.Inc()
	if a.Value() != 2 {
		t.Fatalf("re-registration did not alias: %d", a.Value())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("conflicting re-registration did not panic")
		}
	}()
	r.NewGauge("x_total", "conflict")
}

// TestConcurrency hammers every instrument type from many goroutines
// while a renderer loops, under -race. Counts must be exact.
func TestConcurrency(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("c_total", "x")
	g := r.NewGauge("g", "x")
	h := r.NewHistogram("h", "x", []float64{1, 10, 100})
	cv := r.NewCounterVec("cv_total", "x", "w")
	hv := histogramVec(r, "hv", "x", []float64{5}, "w")

	const workers = 8
	const perWorker = 5000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // concurrent renders must never race observers
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				var buf bytes.Buffer
				if err := r.WriteTo(&buf); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	var workersWG sync.WaitGroup
	for w := 0; w < workers; w++ {
		workersWG.Add(1)
		go func(w int) {
			defer workersWG.Done()
			mine := cv.With("w" + string(rune('0'+w)))
			mh := hv("shared")
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(i % 200))
				mine.Inc()
				mh.Observe(float64(i % 10))
			}
		}(w)
	}
	workersWG.Wait()
	close(stop)
	wg.Wait()

	const total = workers * perWorker
	if c.Value() != total {
		t.Errorf("counter lost updates: %d != %d", c.Value(), total)
	}
	if g.Value() != total {
		t.Errorf("gauge lost adds: %v != %d", g.Value(), total)
	}
	var observed uint64
	for i := range h.counts {
		observed += h.counts[i].Load()
	}
	if observed != total {
		t.Errorf("histogram lost observations: %d != %d", observed, total)
	}
	var buf bytes.Buffer
	if err := r.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	s, err := ParseText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Sum("cv_total"); got != total {
		t.Errorf("sum over counter vec = %v, want %d", got, total)
	}
	if got, _ := s.Value(`hv_count{w="shared"}`); got != total {
		t.Errorf("labeled histogram count = %v, want %d", got, total)
	}
}

// TestFormatFloat pins the sample formatting: integral values render
// without exponents (scrape assertions grep for them), the rest in
// shortest-g.
func TestFormatFloat(t *testing.T) {
	cases := map[float64]string{
		0:       "0",
		1000000: "1000000",
		0.05:    "0.05",
		1234.25: "1234.25",
	}
	for v, want := range cases {
		if got := formatFloat(v); got != want {
			t.Errorf("formatFloat(%v) = %q, want %q", v, got, want)
		}
	}
	if got := formatFloat(math.Inf(1)); got != "+Inf" {
		t.Errorf("formatFloat(+Inf) = %q", got)
	}
}
