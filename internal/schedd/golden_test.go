package schedd

// Golden-file pins for the version-bumped wire and journal encodings
// the tenancy work touched: the admit journal record, the server
// snapshot wrapper, and the CSBB binary submit frame. The pre-tenancy
// files are frozen in git and go through golden.Frozen, which -update
// never rewrites — the current encoder must keep producing those exact
// bytes for tenant-free input (old journals and old clients stay
// readable and re-writable), and the current decoder must read them
// back with empty Tenant fields. The tenancy files pin the version-2
// shapes so a future codec change is a deliberate diff, not an
// accident. (The fleet-image golden lives with its codec in
// internal/sched/testdata.)
//
// Regenerate the unfrozen ones deliberately with:
//
//	go test ./internal/schedd -run Golden -update

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"carbonshift/internal/golden"
	"carbonshift/internal/sched"
	"carbonshift/internal/tracing"
)

// goldenJobsPreTenancy is a tenant-free batch: the admit record for it
// must stay byte-identical to what the pre-tenancy codec wrote.
func goldenJobsPreTenancy() []sched.Job {
	return []sched.Job{
		{ID: 3, Origin: "CLEAN", Arrival: 5, Length: 2, Slack: 10},
		{ID: 4, Origin: "DIRTY", Arrival: 5, Length: 7, Interruptible: true, Migratable: true},
	}
}

func goldenJobsTenancy() []sched.Job {
	return []sched.Job{
		{ID: 3, Origin: "CLEAN", Tenant: "web", Arrival: 5, Length: 2, Slack: 10},
		{ID: 4, Origin: "DIRTY", Arrival: 5, Length: 7, Interruptible: true, Migratable: true},
		{ID: 9, Origin: "CLEAN", Tenant: "spot-9.b_c", Arrival: 5, Length: 1, Slack: 3},
	}
}

func TestAdmitRecordGolden(t *testing.T) {
	// Pre-tenancy shape: frozen bytes, and decoding yields empty Tenant.
	rec := encodeAdmit(5, 10, goldenJobsPreTenancy(), tracing.TraceID{})
	golden.Frozen(t, "admit_record_pre_tenancy.golden", rec)
	arrival, nextID, jobs, tid, err := decodeAdmit(rec)
	if err != nil {
		t.Fatal(err)
	}
	if arrival != 5 || nextID != 10 || !tid.IsZero() {
		t.Fatalf("decoded arrival=%d nextID=%d tid=%v", arrival, nextID, tid)
	}
	if !reflect.DeepEqual(jobs, goldenJobsPreTenancy()) {
		t.Fatalf("pre-tenancy admit round-trip: %+v", jobs)
	}
	for _, j := range jobs {
		if j.Tenant != "" {
			t.Fatalf("pre-tenancy record decoded with tenant %q", j.Tenant)
		}
	}

	// Tenancy shape, with a trace id appended the way sampled submits do.
	tid = tracing.TraceID{0xde, 0xad, 0xbe, 0xef, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}
	rec = encodeAdmit(5, 10, goldenJobsTenancy(), tid)
	golden.Check(t, "admit_record_tenancy.golden", rec)
	arrival, nextID, jobs, gotTid, err := decodeAdmit(rec)
	if err != nil {
		t.Fatal(err)
	}
	if arrival != 5 || nextID != 10 || gotTid != tid {
		t.Fatalf("decoded arrival=%d nextID=%d tid=%v", arrival, nextID, gotTid)
	}
	if !reflect.DeepEqual(jobs, goldenJobsTenancy()) {
		t.Fatalf("tenancy admit round-trip: %+v", jobs)
	}
}

func TestServerSnapshotGolden(t *testing.T) {
	img := []byte("synthetic-fleet-image")
	snap := encodeServerSnapshot(1234, img)
	golden.Check(t, "server_snapshot_header.golden", snap)
	nextID, fleetImg, err := decodeServerSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	if nextID != 1234 || !bytes.Equal(fleetImg, img) {
		t.Fatalf("snapshot round-trip: nextID=%d img=%q", nextID, fleetImg)
	}
}

// decodeFrameJobs runs a frame through the full decode path with
// plain-string interning.
func decodeFrameJobs(t *testing.T, frame []byte) *batch {
	t.Helper()
	b := &batch{}
	str := func(x []byte) string { return string(x) }
	if err := readBinaryFrame(bytes.NewReader(frame), binReqMagic, b); err != nil {
		t.Fatal(err)
	}
	if err := decodeBinaryJobs(b, str, str); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBinaryFrameGolden(t *testing.T) {
	// A tenant-free batch must still encode as a version-1 frame,
	// byte-identical to what pre-tenancy clients sent.
	five := 5
	v1Reqs := []JobRequest{
		{ID: &five, Origin: "CLEAN", LengthHours: 2, SlackHours: 10, Interruptible: true},
		{Origin: "DIRTY", LengthHours: 1, Migratable: true},
	}
	v1 := AppendBinarySubmit(nil, v1Reqs)
	if v1[4] != binVersion {
		t.Fatalf("tenant-free frame version = %d, want %d", v1[4], binVersion)
	}
	golden.Frozen(t, "binary_frame_v1.golden", v1)
	b := decodeFrameJobs(t, v1)
	wantV1 := []sched.Job{
		{ID: 5, Origin: "CLEAN", Length: 2, Slack: 10, Interruptible: true},
		{Origin: "DIRTY", Length: 1, Migratable: true},
	}
	if !reflect.DeepEqual(b.jobs, wantV1) || b.auto[0] || !b.auto[1] {
		t.Fatalf("v1 frame decode: jobs=%+v auto=%v", b.jobs, b.auto)
	}

	// One tenant-tagged job upgrades the whole frame to version 2;
	// untagged jobs in the same batch carry no trailer.
	v2Reqs := []JobRequest{
		{ID: &five, Origin: "CLEAN", Tenant: "web", LengthHours: 2, SlackHours: 10, Interruptible: true},
		{Origin: "DIRTY", LengthHours: 1, Migratable: true},
		{Origin: "CLEAN", Tenant: "spot-9.b_c", LengthHours: 1, SlackHours: 3},
	}
	v2 := AppendBinarySubmit(nil, v2Reqs)
	if v2[4] != binVersionTenant {
		t.Fatalf("tenant-tagged frame version = %d, want %d", v2[4], binVersionTenant)
	}
	golden.Check(t, "binary_frame_v2.golden", v2)
	b = decodeFrameJobs(t, v2)
	wantV2 := []sched.Job{
		{ID: 5, Origin: "CLEAN", Tenant: "web", Length: 2, Slack: 10, Interruptible: true},
		{Origin: "DIRTY", Length: 1, Migratable: true},
		{Origin: "CLEAN", Tenant: "spot-9.b_c", Length: 1, Slack: 3},
	}
	if !reflect.DeepEqual(b.jobs, wantV2) {
		t.Fatalf("v2 frame decode: jobs=%+v", b.jobs)
	}

	// The tenant flag smuggled into a version-1 frame is an unknown
	// flag, not a silent tenant: take the canonical v2 encoder output
	// for a tagged job and downgrade the version byte — the CRC covers
	// only the payload, so the frame still verifies, and the decoder
	// must reject on the flag.
	smuggled := AppendBinarySubmit(nil, []JobRequest{{Origin: "CLEAN", Tenant: "web", LengthHours: 1}})
	smuggled[4] = binVersion
	bb := &batch{}
	if err := readBinaryFrame(bytes.NewReader(smuggled), binReqMagic, bb); err != nil {
		t.Fatal(err)
	}
	err := decodeBinaryJobs(bb, func(x []byte) string { return string(x) }, func(x []byte) string { return string(x) })
	if err == nil || !strings.Contains(err.Error(), "unknown flags") {
		t.Fatalf("tenant flag in v1 frame: err = %v, want unknown-flags rejection", err)
	}

	// The ack frame is protocol-version-independent (always v1).
	ack := AppendBinaryAck(nil, 7, []int{3, 4, 9})
	golden.Check(t, "binary_ack.golden", ack)
	resp, err := DecodeBinaryAck(ack)
	if err != nil {
		t.Fatal(err)
	}
	if resp.ArrivalHour != 7 || resp.Accepted != 3 || !reflect.DeepEqual(resp.IDs, []int{3, 4, 9}) {
		t.Fatalf("ack round-trip: %+v", resp)
	}
}
