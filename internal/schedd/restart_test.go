package schedd

import (
	"context"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"carbonshift/internal/sched"
	"carbonshift/internal/wal"
)

// TestJournaledRestartUnderLoad is the durability race/stress
// regression: concurrent submitters hammer a journaling schedd while
// its replay clock advances (so admissions, steps, watermark appends,
// and snapshot rotations interleave), the server is shut down as
// SIGTERM would (stop serving, flush the journal), a second
// incarnation recovers from the same directory and takes another round
// of concurrent traffic, and the final drain must account for every
// acknowledged job from both incarnations exactly once — nothing lost
// across the restart, nothing double-completed. Run under -race this
// also certifies the journaling lock structure.
func TestJournaledRestartUnderLoad(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		Policy:  sched.GreenestFirst{},
		DataDir: dir, SnapshotEvery: 2,
		Sync: wal.SyncBatch,
	}

	const (
		submitters = 6
		perWorker  = 30
		rounds     = 2
	)
	acked := make(map[int]int) // job id -> acks, across both incarnations

	for round := 0; round < rounds; round++ {
		clock := &hourClock{}
		srv, err := New(mkSet(t, 24*20), clusters(60), cfg, WithClock(clock.now))
		if err != nil {
			t.Fatal(err)
		}
		if round > 0 {
			rec := srv.Recovery()
			if !rec.Recovered || rec.TornTail {
				t.Fatalf("restart did not recover cleanly: %+v", rec)
			}
			if rec.RecoveredJobs != len(acked) {
				t.Fatalf("recovered %d jobs, first incarnation acknowledged %d", rec.RecoveredJobs, len(acked))
			}
		}
		ts := httptest.NewServer(srv.Handler())
		client, err := NewClient(ts.URL, ts.Client())
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()

		var (
			ackMu   sync.Mutex
			writers sync.WaitGroup
			errsCh  = make(chan error, submitters+1)
		)
		// Clock driver: march the replay forward so steps, watermarks,
		// and rotations interleave with admissions.
		writers.Add(1)
		go func() {
			defer writers.Done()
			for h := int64(1); h <= 8; h++ {
				clock.hour.Store(int64(round)*8 + h)
				time.Sleep(time.Millisecond)
				if _, err := client.Stats(ctx); err != nil {
					errsCh <- fmt.Errorf("stats: %w", err)
					return
				}
			}
		}()
		for w := 0; w < submitters; w++ {
			writers.Add(1)
			go func(w int) {
				defer writers.Done()
				for i := 0; i < perWorker; i += 2 {
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
		writers.Wait()
		close(errsCh)
		for err := range errsCh {
			t.Fatal(err)
		}

		total := (round + 1) * submitters * perWorker
		if len(acked) != total {
			t.Fatalf("round %d: %d distinct ids acknowledged, want %d", round, len(acked), total)
		}

		if round < rounds-1 {
			// The SIGTERM path: stop serving, flush and close the
			// journal, abandon the process. No drain — unfinished work
			// must survive in the journal.
			ts.Close()
			if err := srv.Close(); err != nil {
				t.Fatal(err)
			}
			continue
		}

		// Final incarnation: drain and audit.
		res, err := srv.Drain()
		if err != nil {
			t.Fatal(err)
		}
		ts.Close()
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
		if len(res.Outcomes) != total {
			t.Fatalf("drained %d outcomes, want %d (lost or duplicated jobs across restart)", len(res.Outcomes), total)
		}
		seen := make(map[int]bool, total)
		completed := 0
		for _, o := range res.Outcomes {
			if seen[o.ID] {
				t.Fatalf("job %d appears twice in the drained result", o.ID)
			}
			seen[o.ID] = true
			if n := acked[o.ID]; n != 1 {
				t.Fatalf("job %d in result was acknowledged %d times", o.ID, n)
			}
			if o.Completed {
				completed++
			}
		}
		if completed != res.Completed || res.Completed != total {
			t.Fatalf("drain left %d/%d jobs uncompleted (Completed=%d)", total-completed, total, res.Completed)
		}
		final := srv.stats()
		if final.Submitted != total || final.Completed != total || final.Unresolved != 0 {
			t.Fatalf("final stats inconsistent: %+v", final)
		}
		if final.Durability == nil || final.Durability.Generation == 0 {
			t.Fatalf("stats missing durability block: %+v", final.Durability)
		}
	}
}
