package schedd

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"carbonshift/internal/sched"
	"carbonshift/internal/trace"
)

var t0 = time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)

// mkSet builds the same two-region world as the sched tests: CLEAN is
// flat and green, DIRTY has a strong diurnal cycle.
func mkSet(t testing.TB, hours int) *trace.Set {
	t.Helper()
	clean := make([]float64, hours)
	dirty := make([]float64, hours)
	for h := 0; h < hours; h++ {
		clean[h] = 20
		if h%24 < 12 {
			dirty[h] = 200
		} else {
			dirty[h] = 800
		}
	}
	s, err := trace.NewSet([]*trace.Trace{
		trace.New("CLEAN", t0, clean),
		trace.New("DIRTY", t0, dirty),
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func clusters(slots int) []sched.Cluster {
	return []sched.Cluster{{Region: "CLEAN", Slots: slots}, {Region: "DIRTY", Slots: slots}}
}

// hourClock is a settable replay clock: the served hour is whatever the
// test last stored.
type hourClock struct{ hour atomic.Int64 }

func (c *hourClock) now() time.Time { return t0.Add(time.Duration(c.hour.Load()) * time.Hour) }

func startServer(t testing.TB, cfg Config, slots int, opts ...Option) (*Server, *Client, *hourClock) {
	t.Helper()
	clock := &hourClock{}
	srv, err := New(mkSet(t, 24*20), clusters(slots), cfg, append(opts, WithClock(clock.now))...)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	client, err := NewClient(ts.URL, ts.Client())
	if err != nil {
		t.Fatal(err)
	}
	return srv, client, clock
}

func TestSubmitAndLifecycle(t *testing.T) {
	_, client, clock := startServer(t, Config{Policy: sched.FIFO{}}, 4)
	ctx := context.Background()

	ack, err := client.Submit(ctx, JobRequest{Origin: "DIRTY", LengthHours: 3, SlackHours: 24})
	if err != nil {
		t.Fatal(err)
	}
	if ack.Accepted != 1 || len(ack.IDs) != 1 || ack.ArrivalHour != 0 {
		t.Fatalf("ack = %+v", ack)
	}
	id := ack.IDs[0]

	job, err := client.Job(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if job.State != "queued" || job.RemainingHours != 3 {
		t.Fatalf("fresh job = %+v", job)
	}

	// One replay hour later FIFO has started it.
	clock.hour.Store(1)
	job, err = client.Job(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if job.State != "running" || job.Region != "DIRTY" || job.RemainingHours != 2 {
		t.Fatalf("after 1h = %+v", job)
	}

	clock.hour.Store(3)
	job, err = client.Job(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if job.State != "done" || job.CompletedAt != 3 || job.EmissionsG != 600 {
		t.Fatalf("final = %+v", job)
	}
}

func TestBatchSubmit(t *testing.T) {
	_, client, clock := startServer(t, Config{Policy: sched.GreenestFirst{}}, 8)
	ctx := context.Background()
	clock.hour.Store(2)

	batch := []JobRequest{
		{Origin: "DIRTY", LengthHours: 2, SlackHours: 12, Migratable: true},
		{Origin: "CLEAN", LengthHours: 1, SlackHours: 12},
		{Origin: "DIRTY", LengthHours: 4, SlackHours: 12, Interruptible: true},
	}
	ack, err := client.Submit(ctx, batch...)
	if err != nil {
		t.Fatal(err)
	}
	if ack.Accepted != 3 || ack.ArrivalHour != 2 {
		t.Fatalf("ack = %+v", ack)
	}
	clock.hour.Store(8)
	stats, err := client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Submitted != 3 || stats.Completed != 3 || stats.Missed != 0 {
		t.Fatalf("stats = %+v", stats)
	}
	// The migratable DIRTY job must have been routed to CLEAN.
	job, err := client.Job(ctx, ack.IDs[0])
	if err != nil {
		t.Fatal(err)
	}
	if job.Region != "CLEAN" {
		t.Fatalf("migratable job ran in %q, want CLEAN", job.Region)
	}
}

func TestStatsShape(t *testing.T) {
	_, client, _ := startServer(t, Config{Policy: sched.FIFO{}, Seed: 42}, 4)
	stats, err := client.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Policy != "fifo" || stats.Seed != 42 || stats.Horizon != 24*20 {
		t.Fatalf("stats = %+v", stats)
	}
	if len(stats.Clusters) != 2 || stats.Clusters[0].Region != "CLEAN" || stats.Clusters[0].Slots != 4 {
		t.Fatalf("clusters = %+v", stats.Clusters)
	}
}

func TestHealthz(t *testing.T) {
	_, client, _ := startServer(t, Config{Policy: sched.FIFO{}}, 1)
	var out map[string]string
	if err := client.get(context.Background(), "/healthz", &out); err != nil {
		t.Fatal(err)
	}
}

func TestSubmitValidation(t *testing.T) {
	_, client, _ := startServer(t, Config{Policy: sched.FIFO{}}, 1)
	ctx := context.Background()
	if _, err := client.Submit(ctx, JobRequest{Origin: "NOPE", LengthHours: 1}); err == nil ||
		!strings.Contains(err.Error(), "no cluster") {
		t.Errorf("orphan origin: err = %v", err)
	}
	if _, err := client.Submit(ctx, JobRequest{Origin: "CLEAN", LengthHours: 0}); err == nil {
		t.Error("zero-length job accepted")
	}
	id := 7
	if _, err := client.Submit(ctx, JobRequest{ID: &id, Origin: "CLEAN", LengthHours: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Submit(ctx, JobRequest{ID: &id, Origin: "CLEAN", LengthHours: 1}); err == nil ||
		!strings.Contains(err.Error(), "duplicate job id") {
		t.Errorf("duplicate id: err = %v", err)
	}
}

// TestAutoIDSkipsExplicitIDs: a client that pins low ids (as loadgen
// does) must not wedge later auto-assigned submissions.
func TestAutoIDSkipsExplicitIDs(t *testing.T) {
	_, client, _ := startServer(t, Config{Policy: sched.FIFO{}}, 8)
	ctx := context.Background()
	id0, id2 := 0, 2
	if _, err := client.Submit(ctx,
		JobRequest{ID: &id0, Origin: "CLEAN", LengthHours: 1},
		JobRequest{ID: &id2, Origin: "CLEAN", LengthHours: 1},
	); err != nil {
		t.Fatal(err)
	}
	// Auto assignment must fill the gap at 1, then skip past 2.
	ack, err := client.Submit(ctx,
		JobRequest{Origin: "CLEAN", LengthHours: 1},
		JobRequest{Origin: "CLEAN", LengthHours: 1},
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(ack.IDs) != 2 || ack.IDs[0] != 1 || ack.IDs[1] != 3 {
		t.Fatalf("auto ids = %v, want [1 3]", ack.IDs)
	}
	// An explicit id later in the same batch is reserved too, on both
	// wires: the auto id must not take it.
	for name, submit := range map[string]func(*Client, context.Context, ...JobRequest) (SubmitResponse, error){
		"json": (*Client).Submit, "binary": (*Client).SubmitBatch,
	} {
		_, client, _ := startServer(t, Config{Policy: sched.FIFO{}}, 8)
		ack, err := submit(client, ctx,
			JobRequest{Origin: "CLEAN", LengthHours: 1},
			JobRequest{ID: &id0, Origin: "CLEAN", LengthHours: 1},
		)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(ack.IDs) != 2 || ack.IDs[0] != 1 || ack.IDs[1] != 0 {
			t.Fatalf("%s: ids = %v, want [1 0]", name, ack.IDs)
		}
	}
}

func TestBadRequests(t *testing.T) {
	srv, _, _ := startServer(t, Config{Policy: sched.FIFO{}}, 1)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed JSON: status %d", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/v1/jobs/abc")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("non-integer id: status %d", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/v1/jobs/999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown id: status %d", resp.StatusCode)
	}
}

func TestQueueBackpressure(t *testing.T) {
	_, client, _ := startServer(t, Config{Policy: sched.FIFO{}, MaxQueue: 2}, 1)
	ctx := context.Background()
	if _, err := client.Submit(ctx,
		JobRequest{Origin: "CLEAN", LengthHours: 2, SlackHours: 48},
		JobRequest{Origin: "CLEAN", LengthHours: 2, SlackHours: 48},
	); err != nil {
		t.Fatal(err)
	}
	_, err := client.Submit(ctx, JobRequest{Origin: "CLEAN", LengthHours: 2, SlackHours: 48})
	if err == nil || !strings.Contains(err.Error(), "queue full") {
		t.Fatalf("over-queue submit: err = %v", err)
	}
}

func TestJobStoreBound(t *testing.T) {
	_, client, clock := startServer(t, Config{Policy: sched.FIFO{}, MaxJobs: 2}, 4)
	ctx := context.Background()
	if _, err := client.Submit(ctx,
		JobRequest{Origin: "CLEAN", LengthHours: 1},
		JobRequest{Origin: "CLEAN", LengthHours: 1},
	); err != nil {
		t.Fatal(err)
	}
	// Even after the first jobs resolve, the store bound still applies:
	// resolved jobs stay queryable.
	clock.hour.Store(5)
	_, err := client.Submit(ctx, JobRequest{Origin: "CLEAN", LengthHours: 1})
	if err == nil || !strings.Contains(err.Error(), "job store full") {
		t.Fatalf("over-store submit: err = %v", err)
	}
}

func TestHorizonExhausted(t *testing.T) {
	_, client, clock := startServer(t, Config{Policy: sched.FIFO{}}, 1)
	clock.hour.Store(24 * 20)
	_, err := client.Submit(context.Background(), JobRequest{Origin: "CLEAN", LengthHours: 1})
	if err == nil || !strings.Contains(err.Error(), "horizon exhausted") {
		t.Fatalf("past-horizon submit: err = %v", err)
	}
}

func TestDrainResolvesEverything(t *testing.T) {
	srv, client, _ := startServer(t, Config{Policy: sched.CarbonGate{Percentile: 40, Window: 24}}, 4)
	ctx := context.Background()
	for i := 0; i < 10; i++ {
		if _, err := client.Submit(ctx, JobRequest{
			Origin: "DIRTY", LengthHours: 3, SlackHours: 48, Interruptible: true,
		}); err != nil {
			t.Fatal(err)
		}
	}
	// The clock never advances; Drain alone must run the world forward.
	res, err := srv.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 10 || res.Missed != 0 {
		t.Fatalf("drained result: completed %d missed %d", res.Completed, res.Missed)
	}
	if res.TotalEmissions <= 0 {
		t.Fatal("drained result has no emissions")
	}
}

func TestConcurrentSubmitters(t *testing.T) {
	_, client, clock := startServer(t, Config{Policy: sched.FIFO{}}, 200)
	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make(chan error, 20)
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := client.Submit(ctx, JobRequest{Origin: "CLEAN", LengthHours: 1, SlackHours: 24})
			errs <- err
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	clock.hour.Store(3)
	stats, err := client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Submitted != 20 || stats.Completed != 20 {
		t.Fatalf("stats = %+v", stats)
	}
}
