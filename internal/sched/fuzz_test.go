package sched

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"carbonshift/internal/tenant"
)

// goldenLines reads one state golden: the hex fleet image and the hex
// job batch.
func goldenLines(t testing.TB, name string) (image, batch []byte) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != 2 {
		t.Fatalf("%s has %d lines, want 2", name, len(lines))
	}
	if image, err = hex.DecodeString(lines[0]); err != nil {
		t.Fatal(err)
	}
	if batch, err = hex.DecodeString(lines[1]); err != nil {
		t.Fatal(err)
	}
	return image, batch
}

// FuzzShardedUnmarshal: arbitrary bytes never panic Unmarshal; an image
// that restores was restored in full — the store re-marshals every job
// exactly as the image's decoder read it, so nothing was truncated into
// the 32-bit record — re-marshals to a fixed point, and leaves a fleet
// that can be read and stepped. Each input is also tried with its last
// four bytes replaced by the right CRC, so mutations reach the decoder
// and the restore checks instead of dying at the checksum. The worlds
// are the state goldens', with and without tenancy, so both golden seed
// images restore. The third seed is one of
// TestStateRejectsUnderivableFields's planted images: refused, but one
// field away from restoring — and, were its rule missing, the first
// check below is the one that would fail on it. The fourth holds more
// than a block of done jobs, so it restores with a frozen block.
func FuzzShardedUnmarshal(f *testing.F) {
	for _, name := range []string{"fleet_state_v1.golden", "fleet_state_v2.golden"} {
		image, _ := goldenLines(f, name)
		f.Add(image)
	}
	_, running, future := derivableJobs()
	f.Add(plantedImage(underivableDone(), running, future))
	f.Add(plantedImage(append(doneJobs(recBlock+100), running, future)...))
	const horizon = 48
	set := mkSet(f, horizon)
	cfg := goldenTenantConfig(f)
	world := func(t *testing.T, tenancy bool) *Fleet {
		fl, err := NewFleet(set, clusters(3), GreenestFirst{}, horizon)
		if err != nil {
			t.Fatal(err)
		}
		if tenancy {
			fl.SetFairQueue(tenant.NewFairQueue(cfg))
		}
		return fl
	}
	jobBytes := func(t *testing.T, data []byte) []byte {
		img, err := decodeImage(data)
		if err != nil {
			t.Fatalf("a restored image does not decode: %v", err)
		}
		e := &stateEnc{}
		for i := range img.jobs {
			e.job(&img.jobs[i])
		}
		return e.Buf
	}
	check := func(t *testing.T, data []byte, tenancy bool) {
		fl := world(t, tenancy)
		if fl.Unmarshal(data) != nil {
			return
		}
		first, err := fl.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(jobBytes(t, first), jobBytes(t, data)) {
			t.Fatal("the restored store does not hold the image's jobs")
		}
		again := world(t, tenancy)
		if err := again.Unmarshal(first); err != nil {
			t.Fatalf("a marshalled image was refused: %v", err)
		}
		if second, _ := again.Marshal(); !bytes.Equal(first, second) {
			t.Fatal("restore + re-marshal is not a fixed point")
		}
		for _, o := range fl.Snapshot().Outcomes {
			if _, ok := fl.Lookup(o.ID); !ok {
				t.Fatalf("restored job %d cannot be looked up", o.ID)
			}
		}
		fl.TenantStats()
		if !fl.Done() {
			_ = fl.Step() // a policy may refuse a hostile state; it must not panic
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		inputs := [][]byte{data}
		if n := len(data) - 4; n >= 0 {
			inputs = append(inputs, binary.BigEndian.AppendUint32(bytes.Clone(data[:n]), crc32.ChecksumIEEE(data[:n])))
		}
		for _, in := range inputs {
			check(t, in, false)
			check(t, in, true)
		}
	})
}

// FuzzDecodeJobs: arbitrary bytes never panic DecodeJobs; a batch that
// decodes survives an encode/decode round trip, and what it did not
// consume is returned untouched.
func FuzzDecodeJobs(f *testing.F) {
	for _, name := range []string{"fleet_state_v1.golden", "fleet_state_v2.golden"} {
		_, batch := goldenLines(f, name)
		f.Add(batch)
	}
	f.Add(append(EncodeJobs(nil, stateJobs()[:2]), 0xAA, 0xBB))
	f.Fuzz(func(t *testing.T, data []byte) {
		jobs, rest, err := DecodeJobs(data)
		if err != nil {
			return
		}
		if !bytes.HasSuffix(data, rest) {
			t.Fatalf("rest %x is not a suffix of the input", rest)
		}
		again, tail, err := DecodeJobs(append(EncodeJobs(nil, jobs), rest...))
		if err != nil || !reflect.DeepEqual(again, jobs) || !bytes.Equal(tail, rest) {
			t.Fatalf("round trip: err=%v\ngot  %+v\nwant %+v", err, again, jobs)
		}
	})
}
