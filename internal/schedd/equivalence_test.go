package schedd

import (
	"context"
	"fmt"
	"net/http/httptest"
	"reflect"
	"testing"

	"carbonshift/internal/sched"
)

type placeRec struct {
	hour, job int
	region    string
}

// TestOnlineEquivalence is the schedd-vs-sched.Run equivalence check:
// the same jobs submitted over HTTP at their arrival hours, against the
// same trace and policy, must produce byte-identical placements (every
// executed job-hour, in order) and a byte-identical aggregate result —
// emissions, waits, migrations, completions — to the offline batch
// simulation, for every policy and both wire protocols. This is what
// makes the online service a faithful serving form of the paper's
// constrained-scheduler analysis. The shards subtests set the deprecated
// Config.Shards, which must stay a no-op until it is removed.
func TestOnlineEquivalence(t *testing.T) {
	const horizon = 24 * 15
	set := mkSet(t, horizon)
	jobs, err := sched.GenerateJobs(sched.WorkloadSpec{
		Jobs:              120,
		ArrivalSpan:       24 * 10,
		SlackHours:        36,
		InterruptibleFrac: 0.7,
		MigratableFrac:    0.5,
		Origins:           []string{"CLEAN", "DIRTY"},
		Seed:              9,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range jobs {
		if jobs[i].Length > 48 {
			jobs[i].Length = 48
		}
	}

	policies := []sched.Policy{
		sched.FIFO{},
		sched.CarbonGate{Percentile: 40, Window: 48},
		sched.ForecastGate{Percentile: 40},
		sched.GreenestFirst{},
		sched.SpatioTemporal{Percentile: 40, Window: 48},
	}
	for _, policy := range policies {
		// Offline reference: the batch simulator's own configuration
		// (every job submitted up front) with the same
		// placement recorder attached. That this fleet equals the serial
		// reference scheduler is pinned inside internal/sched.
		var offline []placeRec
		ref, err := sched.NewShardedFleet(set, clusters(20), policy, horizon, 0)
		if err != nil {
			t.Fatal(err)
		}
		ref.OnPlace = func(hour, jobID int, region string) {
			offline = append(offline, placeRec{hour, jobID, region})
		}
		if err := ref.Submit(jobs...); err != nil {
			t.Fatal(err)
		}
		for !ref.Done() {
			if err := ref.Step(); err != nil {
				t.Fatal(err)
			}
		}
		refResult := ref.Snapshot()

		// Run, the public batch entry point, must agree with the
		// recorded fleet (it is the same engine).
		runResult, err := sched.Run(set, clusters(20), jobs, policy, horizon)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(refResult, runResult) {
			t.Fatal("recorded offline fleet differs from sched.Run")
		}

		// The binary batch protocol must be placement-identical to the
		// JSON path, so it rides the same sweep: the only difference
		// between the variants is which client codec carries the jobs.
		for _, variant := range []struct {
			shards int
			binary bool
		}{
			{1, false}, {4, false}, {16, false},
			{1, true}, {16, true},
		} {
			shards, binary := variant.shards, variant.binary
			proto := "json"
			if binary {
				proto = "binary"
			}
			t.Run(fmt.Sprintf("%s/shards=%d/%s", policy.Name(), shards, proto), func(t *testing.T) {
				// Online: an HTTP server on a hand-cranked replay clock.
				// Jobs are POSTed with their original ids exactly when
				// the replay reaches their arrival hour.
				var online []placeRec
				clock := &hourClock{}
				srv, err := New(set, clusters(20),
					Config{Policy: policy, Horizon: horizon, Shards: shards},
					WithClock(clock.now),
					WithRecorder(func(hour, jobID int, region string) {
						online = append(online, placeRec{hour, jobID, region})
					}))
				if err != nil {
					t.Fatal(err)
				}
				ts := httptest.NewServer(srv.Handler())
				defer ts.Close()
				client, err := NewClient(ts.URL, ts.Client())
				if err != nil {
					t.Fatal(err)
				}

				ctx := context.Background()
				next := 0
				for hour := 0; hour < horizon; hour++ {
					clock.hour.Store(int64(hour))
					var batch []JobRequest
					for next < len(jobs) && jobs[next].Arrival == hour {
						j := jobs[next]
						id := j.ID
						batch = append(batch, JobRequest{
							ID:            &id,
							Origin:        j.Origin,
							LengthHours:   j.Length,
							SlackHours:    j.Slack,
							Interruptible: j.Interruptible,
							Migratable:    j.Migratable,
						})
						next++
					}
					if len(batch) == 0 {
						continue
					}
					submit := client.Submit
					if binary {
						submit = client.SubmitBatch
					}
					ack, err := submit(ctx, batch...)
					if err != nil {
						t.Fatal(err)
					}
					if ack.ArrivalHour != hour {
						t.Fatalf("arrival hour %d, want %d", ack.ArrivalHour, hour)
					}
				}
				if next != len(jobs) {
					t.Fatalf("submitted %d/%d jobs", next, len(jobs))
				}
				// Crank the clock to the end; any request drives the
				// fleet through the remaining hours.
				clock.hour.Store(int64(horizon))
				if _, err := client.Stats(ctx); err != nil {
					t.Fatal(err)
				}

				if !reflect.DeepEqual(online, offline) {
					t.Fatalf("placement sequences differ: online %d records, offline %d", len(online), len(offline))
				}
				if got := srv.Snapshot(); !reflect.DeepEqual(got, runResult) {
					t.Fatalf("online result differs from sched.Run:\nonline:  %+v\noffline: %+v",
						summarize(got), summarize(runResult))
				}
			})
		}
	}
}

func summarize(r sched.Result) map[string]any {
	return map[string]any{
		"emissions": r.TotalEmissions,
		"completed": r.Completed,
		"missed":    r.Missed,
		"wait":      r.MeanWaitHours,
		"used":      r.SlotHoursUsed,
	}
}
