package schedd

// The tracing acceptance test: one trace ID links a client submit →
// schedd admission → WAL append → replication stream → follower apply,
// across what are logically two processes (primary and follower
// servers with separate tracers). Plus codec pinning for the optional
// trace-ID suffix on admit records — old records (no suffix) must keep
// decoding, so pre-tracing journals and golden files stay readable.

import (
	"context"
	"testing"
	"time"

	"carbonshift/internal/sched"
	"carbonshift/internal/tracing"
)

func TestTraceLinksSubmitToFollowerApply(t *testing.T) {
	// The primary's own sampler is OFF (every harness world has it off):
	// the only way anything records here is the sampled flag arriving in
	// the client's traceparent — which is exactly the propagation chain
	// under test.
	c := newCluster(t, world{policy: sched.FIFO{}})
	primary, client := c.primary.srv, c.primary.client
	follower := c.startFollower(FollowerConfig{}, true).srv

	// The client mints the trace, like cmd/loadgen -slowest does.
	ctr := tracing.New(tracing.Config{SampleEvery: 1})
	cctx, csp := ctr.StartRoot(context.Background(), "loadgen.submit")
	tid := tracing.FromContext(cctx).TraceID
	ack, err := client.Submit(cctx, JobRequest{Origin: "DIRTY", LengthHours: 2, SlackHours: 12})
	csp.End()
	if err != nil {
		t.Fatal(err)
	}
	if ack.Accepted != 1 {
		t.Fatalf("ack = %+v", ack)
	}

	// Primary side: the submit's server spans joined the client's trace.
	var td *tracing.TraceDump
	for _, cand := range primary.Tracer().Snapshot().Traces {
		if cand.TraceID == tid.String() {
			td = &cand
			break
		}
	}
	if td == nil {
		t.Fatalf("primary /debug/traces holds no trace %s", tid)
	}
	if td.Root != "POST /v1/jobs" {
		t.Fatalf("primary trace root = %q, want the submit route", td.Root)
	}
	have := map[string]bool{}
	for _, s := range td.Spans {
		have[s.Name] = true
	}
	for _, want := range []string{"POST /v1/jobs", "schedd.decode", "schedd.admit", "wal.append", "wal.fsync_wait"} {
		if !have[want] {
			t.Errorf("primary trace %s is missing span %q (have %v)", tid, want, td.Spans)
		}
	}

	// Follower side: the admit record carried the trace ID through the
	// stream, and the apply span joined the SAME trace over there.
	root := ""
	waitUntil(t, "the follower's span in the trace", func() bool {
		for _, cand := range follower.Tracer().Snapshot().Traces {
			if cand.TraceID == tid.String() {
				root = cand.Root
			}
		}
		return root != ""
	})
	if root != "repl.apply" {
		t.Fatalf("follower trace root = %q, want repl.apply", root)
	}
}

func TestAdmitRecordTraceIDCodec(t *testing.T) {
	jobs := []sched.Job{
		{ID: 1, Origin: "CLEAN", Length: 2, Slack: 3, Arrival: 5},
		{ID: 2, Origin: "DIRTY", Length: 1, Slack: 0, Arrival: 5, Interruptible: true},
	}

	// Untraced records are byte-identical to the pre-tracing format.
	old := encodeAdmit(5, 7, jobs, tracing.TraceID{})
	arrival, next, gotJobs, tid, err := decodeAdmit(old)
	if err != nil {
		t.Fatalf("untraced record: %v", err)
	}
	if arrival != 5 || next != 7 || len(gotJobs) != 2 || !tid.IsZero() {
		t.Fatalf("untraced decode = (%d, %d, %d jobs, tid %v)", arrival, next, len(gotJobs), tid)
	}

	// A sampled record round-trips its 16-byte trace ID.
	want := tracing.TraceID{0xde, 0xad, 0xbe, 0xef, 15: 0x01}
	traced := encodeAdmit(5, 7, jobs, want)
	if got, wantLen := len(traced), len(old)+16; got != wantLen {
		t.Fatalf("traced record is %d bytes, want %d", got, wantLen)
	}
	if _, _, _, tid, err = decodeAdmit(traced); err != nil || tid != want {
		t.Fatalf("traced decode: tid=%v err=%v", tid, err)
	}

	// Any other trailing length is corruption, not a trace ID.
	for _, extra := range []int{1, 8, 15, 17} {
		bad := append(append([]byte{}, old...), make([]byte, extra)...)
		if _, _, _, _, err := decodeAdmit(bad); err == nil {
			t.Errorf("%d trailing bytes decoded without error", extra)
		}
	}
}

// TestRecoveryReplaysTracedRecords: a journal holding trace-ID-suffixed
// admit records (the server samples every submit) recovers exactly like
// one without them, through a restart and check's reboots.
func TestRecoveryReplaysTracedRecords(t *testing.T) {
	admit(t, world{policy: sched.FIFO{}, cfg: Config{TraceSampleEvery: 1}},
		send(ok, cjob(1, 4)), send(ok, cjob(1, 4)), send(ok, cjob(1, 4)),
		act((*cluster).restart))
}

// TestUnsampledRecordAllocs pins the two recording calls every record
// makes whether or not its trace is kept: the journal's group-commit
// root (one per fsync round) and the follower's apply span (one per
// replicated record). Untraced, neither allocates: the attrs stay on
// the caller's stack, and an apply whose record carries no trace
// formats none, even at an arrival hour strconv does not intern.
func TestUnsampledRecordAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	srv, err := New(mkSet(t, 48, 2), clusters(4), Config{
		Policy: sched.FIFO{}, DataDir: t.TempDir(), TraceSampleEvery: -1, TraceSlow: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	j := srv.liveJournal()
	if n := testing.AllocsPerRun(100, func() {
		if err := j.Sync(); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("%v allocations per unsampled group commit, want 0", n)
	}
	start := time.Now()
	if n := testing.AllocsPerRun(100, func() {
		srv.traceApply(applied{hour: 400, jobs: 64}, start)
	}); n != 0 {
		t.Errorf("%v allocations per untraced record applied, want 0", n)
	}
	if got := len(srv.Tracer().Snapshot().Traces); got != 0 {
		t.Fatalf("untraced records left %d traces", got)
	}
}
