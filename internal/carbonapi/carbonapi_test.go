package carbonapi

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"carbonshift/internal/forecast"
	"carbonshift/internal/trace"
)

var t0 = time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)

func testSet(t *testing.T, hours int) *trace.Set {
	t.Helper()
	a := make([]float64, hours)
	b := make([]float64, hours)
	for h := 0; h < hours; h++ {
		a[h] = 100 + 50*math.Sin(2*math.Pi*float64(h)/24)
		b[h] = 700
	}
	s, err := trace.NewSet([]*trace.Trace{
		trace.New("AA", t0, a),
		trace.New("BB", t0, b),
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// fixedClock pins "now" to a given trace hour.
func fixedClock(hour int) func() time.Time {
	return func() time.Time { return t0.Add(time.Duration(hour) * time.Hour) }
}

func startServer(t *testing.T, set *trace.Set, nowHour int) (*httptest.Server, *Client) {
	t.Helper()
	srv := NewServer(set, WithClock(fixedClock(nowHour)))
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	client, err := NewClient(ts.URL, ts.Client())
	if err != nil {
		t.Fatal(err)
	}
	return ts, client
}

func TestRegions(t *testing.T) {
	_, client := startServer(t, testSet(t, 100), 50)
	got, err := client.Regions(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != "AA" || got[1] != "BB" {
		t.Fatalf("regions = %v", got)
	}
}

func TestLatest(t *testing.T) {
	set := testSet(t, 100)
	_, client := startServer(t, set, 42)
	p, err := client.Latest(context.Background(), "BB")
	if err != nil {
		t.Fatal(err)
	}
	if p.CarbonIntensity != 700 {
		t.Fatalf("intensity = %v", p.CarbonIntensity)
	}
	if !p.Timestamp.Equal(t0.Add(42 * time.Hour)) {
		t.Fatalf("timestamp = %v", p.Timestamp)
	}
}

func TestLatestUnknownRegion(t *testing.T) {
	_, client := startServer(t, testSet(t, 100), 10)
	_, err := client.Latest(context.Background(), "NOPE")
	if err == nil || !strings.Contains(err.Error(), "unknown region") {
		t.Fatalf("err = %v", err)
	}
}

func TestHistory(t *testing.T) {
	set := testSet(t, 200)
	_, client := startServer(t, set, 100)
	points, err := client.History(context.Background(), "AA", 24)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 24 {
		t.Fatalf("points = %d", len(points))
	}
	// Oldest first, ending just before "now".
	if !points[0].Timestamp.Equal(t0.Add(76 * time.Hour)) {
		t.Fatalf("first timestamp = %v", points[0].Timestamp)
	}
	if !points[23].Timestamp.Equal(t0.Add(99 * time.Hour)) {
		t.Fatalf("last timestamp = %v", points[23].Timestamp)
	}
	want := set.MustGet("AA").At(76)
	if math.Abs(points[0].CarbonIntensity-want) > 1e-9 {
		t.Fatalf("value = %v, want %v", points[0].CarbonIntensity, want)
	}
}

func TestHistoryClampsAtStart(t *testing.T) {
	_, client := startServer(t, testSet(t, 100), 5)
	points, err := client.History(context.Background(), "AA", 48)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 5 {
		t.Fatalf("points = %d, want 5 (clamped to dataset start)", len(points))
	}
}

func TestForecastNeverLeaksFuture(t *testing.T) {
	set := testSet(t, 24*30)
	now := 24 * 20
	_, client := startServer(t, set, now)
	points, err := client.Forecast(context.Background(), "AA", 24)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 24 {
		t.Fatalf("points = %d", len(points))
	}
	// The sinusoid is noise-free, so a good forecast is near the true
	// future, but it must come from the model: check it equals the
	// blended model's output on the clamped history, not the truth by
	// construction of the handler.
	pred, err := (forecast.Blended{}).Forecast(set.MustGet("AA").CI[:now], 24)
	if err != nil {
		t.Fatal(err)
	}
	for i := range points {
		if math.Abs(points[i].CarbonIntensity-pred[i]) > 1e-9 {
			t.Fatalf("hour %d: served %v, model says %v", i, points[i].CarbonIntensity, pred[i])
		}
	}
	if !points[0].Timestamp.Equal(t0.Add(time.Duration(now) * time.Hour)) {
		t.Fatalf("forecast starts at %v", points[0].Timestamp)
	}
}

func TestForecastTooLittleHistory(t *testing.T) {
	// Now pinned to hour 1: the blended model needs a day of history.
	_, client := startServer(t, testSet(t, 100), 1)
	_, err := client.Forecast(context.Background(), "AA", 24)
	if err == nil || !strings.Contains(err.Error(), "forecast unavailable") {
		t.Fatalf("err = %v", err)
	}
}

func TestBadHoursParam(t *testing.T) {
	ts, _ := startServer(t, testSet(t, 100), 50)
	for _, q := range []string{"hours=0", "hours=-1", "hours=abc", "hours=99999999"} {
		resp, err := http.Get(ts.URL + "/v1/carbon-intensity/AA/history?" + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", q, resp.StatusCode)
		}
	}
}

func TestDefaultHours(t *testing.T) {
	ts, _ := startServer(t, testSet(t, 100), 60)
	resp, err := http.Get(ts.URL + "/v1/carbon-intensity/AA/history")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out SeriesResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Points) != 24 {
		t.Fatalf("default window = %d points, want 24", len(out.Points))
	}
	if out.Unit != Unit || out.Forecast {
		t.Fatalf("response metadata wrong: %+v", out)
	}
}

func TestClockClamping(t *testing.T) {
	set := testSet(t, 100)
	// A clock far past the dataset clamps to the final hour.
	srv := NewServer(set, WithClock(func() time.Time { return t0.Add(10000 * time.Hour) }))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client, err := NewClient(ts.URL, ts.Client())
	if err != nil {
		t.Fatal(err)
	}
	p, err := client.Latest(context.Background(), "AA")
	if err != nil {
		t.Fatal(err)
	}
	if !p.Timestamp.Equal(t0.Add(99 * time.Hour)) {
		t.Fatalf("clamped timestamp = %v", p.Timestamp)
	}
	// And a clock before the dataset clamps to hour 1.
	srv2 := NewServer(set, WithClock(func() time.Time { return t0.Add(-time.Hour) }))
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	client2, err := NewClient(ts2.URL, ts2.Client())
	if err != nil {
		t.Fatal(err)
	}
	p, err = client2.Latest(context.Background(), "AA")
	if err != nil {
		t.Fatal(err)
	}
	if !p.Timestamp.Equal(t0.Add(time.Hour)) {
		t.Fatalf("clamped-low timestamp = %v", p.Timestamp)
	}
}

func TestMethodNotAllowed(t *testing.T) {
	ts, _ := startServer(t, testSet(t, 100), 50)
	resp, err := http.Post(ts.URL+"/v1/regions", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST status = %d, want 405", resp.StatusCode)
	}
}

func TestNewClientValidation(t *testing.T) {
	if _, err := NewClient("not a url", nil); err == nil {
		t.Fatal("garbage URL accepted")
	}
	if _, err := NewClient("", nil); err == nil {
		t.Fatal("empty URL accepted")
	}
	if c, err := NewClient("http://example.com", nil); err != nil || c == nil {
		t.Fatalf("valid URL rejected: %v", err)
	}
}

func TestConcurrentRequests(t *testing.T) {
	_, client := startServer(t, testSet(t, 24*30), 24*20)
	var wg sync.WaitGroup
	errs := make(chan error, 40)
	for i := 0; i < 40; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx := context.Background()
			switch i % 3 {
			case 0:
				_, err := client.Latest(ctx, "AA")
				errs <- err
			case 1:
				_, err := client.History(ctx, "BB", 48)
				errs <- err
			default:
				_, err := client.Forecast(ctx, "AA", 12)
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestContextCancellation(t *testing.T) {
	_, client := startServer(t, testSet(t, 100), 50)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := client.Latest(ctx, "AA"); err == nil {
		t.Fatal("cancelled context succeeded")
	}
}

func TestHealthz(t *testing.T) {
	_, client := startServer(t, testSet(t, 100), 50)
	var out map[string]string
	if err := client.get(context.Background(), "/healthz", &out); err != nil {
		t.Fatal(err)
	}
}

func TestBatchLatestOnly(t *testing.T) {
	set := testSet(t, 100)
	_, client := startServer(t, set, 42)
	got, err := client.Batch(context.Background(), []string{"AA", "BB"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("regions = %d", len(got))
	}
	for i, code := range []string{"AA", "BB"} {
		if got[i].Region != code {
			t.Fatalf("region %d = %q, want %q", i, got[i].Region, code)
		}
		want := set.MustGet(code).At(42)
		if math.Abs(got[i].Latest.CarbonIntensity-want) > 1e-9 {
			t.Fatalf("%s latest = %v, want %v", code, got[i].Latest.CarbonIntensity, want)
		}
		if got[i].History != nil {
			t.Fatalf("%s has history without hours param", code)
		}
	}
}

func TestBatchWithHistory(t *testing.T) {
	set := testSet(t, 200)
	_, client := startServer(t, set, 100)
	got, err := client.Batch(context.Background(), []string{"BB", "AA"}, 24)
	if err != nil {
		t.Fatal(err)
	}
	// Order follows the request, not the catalog.
	if got[0].Region != "BB" || got[1].Region != "AA" {
		t.Fatalf("order = %q, %q", got[0].Region, got[1].Region)
	}
	for _, br := range got {
		if len(br.History) != 24 {
			t.Fatalf("%s history = %d points", br.Region, len(br.History))
		}
		if !br.History[0].Timestamp.Equal(t0.Add(76 * time.Hour)) {
			t.Fatalf("%s history starts at %v", br.Region, br.History[0].Timestamp)
		}
		want := set.MustGet(br.Region).At(76)
		if math.Abs(br.History[0].CarbonIntensity-want) > 1e-9 {
			t.Fatalf("%s history[0] = %v, want %v", br.Region, br.History[0].CarbonIntensity, want)
		}
	}
}

func TestBatchValidation(t *testing.T) {
	ts, client := startServer(t, testSet(t, 100), 50)
	if _, err := client.Batch(context.Background(), []string{"AA", "NOPE"}, 0); err == nil ||
		!strings.Contains(err.Error(), "unknown region") {
		t.Errorf("unknown region: err = %v", err)
	}
	if _, err := client.Batch(context.Background(), nil, 0); err == nil {
		t.Error("empty region list accepted client-side")
	}
	resp, err := http.Get(ts.URL + "/v1/carbon-intensity/batch")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("missing regions param: status %d", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/v1/carbon-intensity/batch?regions=AA&hours=0")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("hours=0: status %d", resp.StatusCode)
	}
}

// --- Client error paths against misbehaving servers ---

// errClient points a Client at an arbitrary handler.
func errClient(t *testing.T, handler http.HandlerFunc) *Client {
	t.Helper()
	ts := httptest.NewServer(handler)
	t.Cleanup(ts.Close)
	client, err := NewClient(ts.URL, ts.Client())
	if err != nil {
		t.Fatal(err)
	}
	return client
}

func TestClientNon2xxWithErrorBody(t *testing.T) {
	client := errClient(t, func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusServiceUnavailable, ErrorResponse{Error: "grid is down"})
	})
	_, err := client.Latest(context.Background(), "AA")
	if err == nil || !strings.Contains(err.Error(), "grid is down") ||
		!strings.Contains(err.Error(), "503") {
		t.Fatalf("err = %v, want status and server message", err)
	}
}

func TestClientNon2xxPlainBody(t *testing.T) {
	client := errClient(t, func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "gateway exploded", http.StatusBadGateway)
	})
	_, err := client.Regions(context.Background())
	if err == nil || !strings.Contains(err.Error(), "unexpected status") {
		t.Fatalf("err = %v, want unexpected-status error", err)
	}
}

func TestClientMalformedJSON(t *testing.T) {
	client := errClient(t, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(`{"regions": [truncated`))
	})
	_, err := client.Regions(context.Background())
	if err == nil || !strings.Contains(err.Error(), "decoding response") {
		t.Fatalf("err = %v, want decoding error", err)
	}
	_, err = client.Batch(context.Background(), []string{"AA"}, 0)
	if err == nil || !strings.Contains(err.Error(), "decoding response") {
		t.Fatalf("batch err = %v, want decoding error", err)
	}
}

func TestClientCancellationMidRequest(t *testing.T) {
	started := make(chan struct{})
	client := errClient(t, func(w http.ResponseWriter, r *http.Request) {
		close(started)
		<-r.Context().Done() // hang until the client gives up
	})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := client.History(ctx, "AA", 24)
		done <- err
	}()
	<-started
	cancel()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "context canceled") {
			t.Fatalf("err = %v, want context cancellation", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled request never returned")
	}
}

func BenchmarkLatestEndpoint(b *testing.B) {
	a := make([]float64, 1000)
	for i := range a {
		a[i] = 100
	}
	set, err := trace.NewSet([]*trace.Trace{trace.New("AA", t0, a)})
	if err != nil {
		b.Fatal(err)
	}
	srv := NewServer(set, WithClock(fixedClock(500)))
	handler := srv.Handler()
	req := httptest.NewRequest(http.MethodGet, "/v1/carbon-intensity/AA/latest", nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d", rec.Code)
		}
	}
}
