package schedd

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"carbonshift/internal/sched"
)

// TestConcurrentClientsUnderStepping is the race/stress regression for
// the service: many concurrent Submit, Lookup, and Stats
// clients hammer a schedd whose replay clock is advancing underneath
// them (so fleet Steps interleave with admissions), then the server
// drains. Run under -race this certifies the lock structure; the
// postconditions certify the bookkeeping: every acknowledged job — and
// only those — appears in the drained result exactly once, and the
// incremental stats counters agree with the full snapshot.
func TestConcurrentClientsUnderStepping(t *testing.T) {
	srv, client, clock := startServer(t,
		Config{Policy: sched.GreenestFirst{}}, 60)
	ctx := context.Background()

	const (
		submitters = 6
		perWorker  = 40
		total      = submitters * perWorker
	)
	var (
		ackMu   sync.Mutex
		acked   = make(map[int]int) // job id -> times acknowledged
		stop    atomic.Bool
		writers sync.WaitGroup
		readers sync.WaitGroup
		errsCh  = make(chan error, submitters+2)
	)

	// Clock driver: march the replay forward while traffic is in
	// flight, so Steps genuinely interleave with admissions.
	writers.Add(1)
	go func() {
		defer writers.Done()
		for h := int64(1); h <= 10; h++ {
			clock.hour.Store(h)
			time.Sleep(2 * time.Millisecond)
		}
	}()

	// Read-side pressure: Lookup and Stats spinning through the run.
	readers.Add(1)
	go func() {
		defer readers.Done()
		for i := 0; !stop.Load(); i++ {
			if _, err := client.Stats(ctx); err != nil {
				errsCh <- fmt.Errorf("stats: %w", err)
				return
			}
			// Lookups race admissions, so unknown ids are expected;
			// transport or server errors surface as empty states.
			if job, err := client.Job(ctx, i%total); err == nil && job.State == "" {
				errsCh <- fmt.Errorf("job %d: empty state", job.ID)
				return
			}
		}
	}()

	for w := 0; w < submitters; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; i < perWorker; i += 2 {
				// Alternate single and batch submissions with server-
				// assigned ids.
				reqs := []JobRequest{
					{Origin: "CLEAN", LengthHours: 1 + (w+i)%3, SlackHours: 48,
						Interruptible: true, Migratable: i%2 == 0},
					{Origin: "DIRTY", LengthHours: 1 + (w+i)%4, SlackHours: 48,
						Interruptible: i%3 != 0, Migratable: true},
				}
				ack, err := client.Submit(ctx, reqs...)
				if err != nil {
					errsCh <- fmt.Errorf("submit: %w", err)
					return
				}
				ackMu.Lock()
				for _, id := range ack.IDs {
					acked[id]++
				}
				ackMu.Unlock()
			}
		}(w)
	}

	done := make(chan struct{})
	go func() { writers.Wait(); close(done) }()
	select {
	case err := <-errsCh:
		stop.Store(true)
		t.Fatal(err)
	case <-done:
	}
	stop.Store(true)
	readers.Wait()
	select {
	case err := <-errsCh:
		t.Fatal(err)
	default:
	}

	res, err := srv.Drain()
	if err != nil {
		t.Fatal(err)
	}

	if len(acked) != total {
		t.Fatalf("acknowledged %d distinct ids, want %d", len(acked), total)
	}
	for id, n := range acked {
		if n != 1 {
			t.Fatalf("job %d acknowledged %d times", id, n)
		}
	}
	if len(res.Outcomes) != total {
		t.Fatalf("drained %d outcomes, want %d (lost or duplicated jobs)", len(res.Outcomes), total)
	}
	seen := make(map[int]bool, total)
	completed := 0
	for _, o := range res.Outcomes {
		if seen[o.ID] {
			t.Fatalf("job %d appears twice in the drained result", o.ID)
		}
		seen[o.ID] = true
		if _, ok := acked[o.ID]; !ok {
			t.Fatalf("job %d in result was never acknowledged", o.ID)
		}
		if o.Completed {
			completed++
		}
	}
	if completed != res.Completed {
		t.Fatalf("result self-inconsistent: %d completed outcomes, Completed=%d", completed, res.Completed)
	}
	if res.Completed != total {
		t.Fatalf("drain left %d/%d jobs uncompleted", total-res.Completed, total)
	}

	// The O(1) counters must agree with the O(n) snapshot at the
	// end of the run.
	st, err := client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Submitted != total || st.Completed != total || st.Unresolved != 0 {
		t.Fatalf("final stats inconsistent: %+v", st)
	}
}
