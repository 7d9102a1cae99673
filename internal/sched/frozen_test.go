package sched

import (
	"math"
	"math/bits"
	"math/rand/v2"
	"testing"
	"time"

	"carbonshift/internal/trace"
)

// frozenHours and zeroHour shape the traces the codec tests freeze over:
// frozenRegions regions of frozenHours samples, region 2 at zero
// intensity in zeroHour.
const frozenRegions, frozenHours, zeroHour = 16, 200, 3

func frozenTraces() []*trace.Trace {
	traces := make([]*trace.Trace, frozenRegions)
	for r := range traces {
		ci := make([]float64, frozenHours)
		for h := range ci {
			ci[h] = 100.1 + 37.3*float64(r) + 0.7*float64(h%29)
		}
		if r == 2 {
			ci[zeroHour] = 0
		}
		traces[r] = trace.New("F"+string(rune('A'+r)), time.Time{}, ci)
	}
	return traces
}

// resum is the model of a frozen block's emissions: a job that ran its
// length hours up to lastRun in its region paid those hours' samples,
// added from 0 in hour order, as Step adds them. ok is false where any of
// those hours is not in the traces.
func resum(r *jobRec, traces []*trace.Trace) (e float64, ok bool) {
	first := int(r.lastRun) - int(r.length) + 1
	if r.regionI < 0 || int(r.regionI) >= len(traces) || r.length < 1 || first < 0 || int(r.lastRun) >= traces[r.regionI].Len() {
		return 0, false
	}
	for h := first; h <= int(r.lastRun); h++ {
		e += traces[r.regionI].At(h)
	}
	return e, true
}

// derived returns r with the emissions resum gives it.
func derived(r jobRec, traces []*trace.Trace) jobRec {
	e, ok := resum(&r, traces)
	if !ok {
		panic("derived: the record's hours are not in the traces")
	}
	r.emissions = e
	return r
}

// doneBlock returns a full block of done records built by rec.
func doneBlock(rec func(i int) jobRec) *[recBlock]jobRec {
	hot := new([recBlock]jobRec)
	for i := range hot {
		hot[i] = rec(i)
		hot[i].flags |= flagDone
	}
	return hot
}

// checkRoundTrip freezes hot over traces and holds every record read
// back to the one frozen, emissions bit for bit (-0 is not 0, a NaN is
// itself), and the block to its layout: the columns, a bitmap word per 64
// records with exactly the records resum reproduces set, and one stored
// word for every other record. It returns the frozen block and how many
// records it derives.
func checkRoundTrip(t *testing.T, hot *[recBlock]jobRec, traces []*trace.Trace) (frozenBlock, int) {
	t.Helper()
	fb := freeze(hot, traces)
	width, derivable := 0, 0
	for _, c := range fb.cols {
		width += int(c.width)
	}
	for i := range hot {
		e, ok := resum(&hot[i], traces)
		want := ok && math.Float64bits(e) == math.Float64bits(hot[i].emissions)
		if got := fb.words[fb.bitmapOff()+i/64]>>(i%64)&1 == 1; got != want {
			t.Fatalf("record %d: derived %v, want %v", i, got, want)
		}
		if want {
			derivable++
		}
	}
	if want := width*recBlock/64 + recBlock/64 + recBlock - derivable; len(fb.words) != want {
		t.Fatalf("%d words for %d bits a record and %d derived emissions, want %d", len(fb.words), width, derivable, want)
	}
	for i := range hot {
		got, want := fb.rec(uint32(i)), hot[i]
		if e := fb.emissions(uint32(i), &got, traces); math.Float64bits(e) != math.Float64bits(want.emissions) {
			t.Fatalf("record %d: emissions %x, want %x", i, math.Float64bits(e), math.Float64bits(want.emissions))
		}
		want.emissions = 0
		if got != want {
			t.Fatalf("record %d:\ngot  %+v\nwant %+v", i, got, want)
		}
		if id := fb.id(uint32(i)); id != hot[i].id {
			t.Fatalf("record %d: id column %d, want %d", i, id, hot[i].id)
		}
	}
	return fb, derivable
}

// typicalRec is a record as Step leaves a block of them: ids submitted
// together, hours a few apart, a handful of tenants and regions. Its
// emissions are not the trace's (derived gives it those).
func typicalRec(i int) jobRec {
	return jobRec{
		id: 3_000_000 + i, emissions: 250 + float64(i%97)*1.5,
		arrival: int32(40 + i/200), length: int32(1 + i%24), slack: int32(i % 7),
		lastRun: int32(60 + i%30), migrations: int32(i % 3), tenantI: uint32(i % 4),
		originI: int16(i % 16), regionI: int16(i % 13), flags: uint8(i % 3),
	}
}

// TestFrozenBlockRoundTrip packs and unpacks blocks at the codec's
// extremes: columns of width 0 and of width 64, every field at the ends
// of its range, emissions whose bits a float comparison would lose, and
// emissions the trace gives back for every record, none or some — among
// them ones it misses by a sign or an ulp, and records whose hours fall
// outside it.
func TestFrozenBlockRoundTrip(t *testing.T) {
	traces := frozenTraces()
	alternate := func(i int, a, b int64) int64 {
		if i%2 == 0 {
			return a
		}
		return b
	}
	for _, c := range []struct {
		name      string
		rec       func(i int) jobRec
		widths    map[int]uint8 // column → the width it must be packed at
		derivable int           // records whose emissions the trace gives back
	}{
		{"a block as Step leaves it", func(i int) jobRec { // every record derived
			return derived(typicalRec(i), traces)
		}, map[int]uint8{colID: 0, colTenant: 2, colFlags: 2}, recBlock},
		{"emissions not the trace's: none derived", typicalRec, map[int]uint8{colID: 0}, 0},
		{"interrupted, migrated and stored: a mix", func(i int) jobRec {
			r := derived(typicalRec(i), traces)
			switch i % 4 {
			case 1: // ran part of its hours in another region
				r.regionI = (r.regionI + 1) % frozenRegions
			case 2: // ran with a break
				r.lastRun++
			case 3:
				r.emissions = float64(i)
			}
			return r
		}, nil, recBlock / 4},
		{"every record alike: width 0", func(i int) jobRec {
			r := derived(typicalRec(5), traces)
			r.id += i // alike to the id column: the id less the position
			return r
		}, map[int]uint8{
			colID: 0, colArrival: 0, colLength: 0, colSlack: 0, colLastRun: 0, colMigrations: 0,
			colTenant: 0, colOrigin: 0, colRegion: 0, colFlags: 0,
		}, recBlock},
		{"ids math.MinInt64 and math.MaxInt64: width 64", func(i int) jobRec {
			r := typicalRec(i)
			r.id = int(alternate(i, math.MinInt64, math.MaxInt64))
			return r
		}, map[int]uint8{colID: 64}, 0},
		{"random ids: width 64", func(i int) jobRec {
			r := typicalRec(i)
			r.id = int(rand.New(rand.NewPCG(uint64(i), 7)).Uint64())
			return r
		}, map[int]uint8{colID: 64}, 0},
		{"hours and counters 0 and math.MaxInt32", func(i int) jobRec {
			r := typicalRec(i)
			h := int32(alternate(i/3, 0, math.MaxInt32))
			r.arrival, r.length, r.slack, r.lastRun, r.migrations = h, math.MaxInt32-h, h, math.MaxInt32-h, h
			return r
		}, map[int]uint8{colArrival: 31, colLength: 31, colSlack: 31, colLastRun: 32, colMigrations: 31}, 0},
		{"never run: lastRun and region -1", func(i int) jobRec {
			r := typicalRec(i)
			r.lastRun, r.regionI = int32(alternate(i, -1, 9)), int16(alternate(i, -1, math.MaxInt16))
			return r
		}, map[int]uint8{colLastRun: 4, colRegion: 16}, 0},
		{"tenant indices 0 and math.MaxUint32", func(i int) jobRec {
			r := typicalRec(i)
			r.tenantI = uint32(alternate(i, 0, math.MaxUint32))
			return r
		}, map[int]uint8{colTenant: 32}, 0},
		{"emissions -0, subnormals, infinities and NaN", func(i int) jobRec {
			r := typicalRec(i)
			r.emissions = []float64{
				math.Copysign(0, -1), 0, math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
				math.Float64frombits(0x000f_ffff_ffff_ffff), math.Inf(1), math.Inf(-1), math.NaN(),
				math.Float64frombits(0x7ff8_0000_dead_beef), math.MaxFloat64,
			}[i%10]
			return r
		}, nil, 0},
		{"-0 where the trace sums to +0, and one ulp off the sum", func(i int) jobRec {
			r := typicalRec(i)
			r.regionI, r.length, r.lastRun = 2, 1, zeroHour
			r = derived(r, traces)
			switch i % 3 {
			case 0:
				r.emissions = math.Copysign(0, -1)
			case 1:
				r.regionI, r.length, r.lastRun = 5, 7, 70
				r = derived(r, traces)
				r.emissions = math.Nextafter(r.emissions, math.Inf(1))
			}
			return r
		}, nil, recBlock / 3},
		{"hours outside the trace", func(i int) jobRec {
			r := typicalRec(i)
			r.emissions = 0
			switch i % 4 {
			case 0:
				r.regionI = -1
			case 1:
				r.regionI = frozenRegions
			case 2:
				r.lastRun = r.length - 2
			case 3:
				r.lastRun = frozenHours
			}
			return r
		}, nil, 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			fb, derivable := checkRoundTrip(t, doneBlock(c.rec), traces)
			for col, want := range c.widths {
				if got := fb.cols[col].width; got != want {
					t.Errorf("column %d packed at width %d, want %d", col, got, want)
				}
			}
			if derivable != c.derivable {
				t.Errorf("%d records derive their emissions, want %d", derivable, c.derivable)
			}
		})
	}
}

// FuzzFrozenBlock: any block of done records packs and unpacks to
// itself. Each column's values are a random base plus a random offset of
// the width the input asks for, truncated to the field's own type; the
// neighbour columns are offsets from their neighbour. A record whose bit
// in derivable (by its position mod 64) is set is moved into the traces
// and given the emissions they sum to; every other record's are random.
func FuzzFrozenBlock(f *testing.F) {
	f.Add(uint64(1), uint64(0), []byte{0, 3, 5, 4, 3, 0, 2, 4, 0, 2})
	f.Add(uint64(2), uint64(0), []byte{64, 32, 32, 32, 32, 32, 32, 16, 16, 2})
	f.Add(uint64(3), ^uint64(0), []byte{0})
	f.Add(uint64(4), uint64(0x5555_5555_5555_5555), []byte{63, 1, 31, 0, 33, 17, 64, 15, 9, 1})
	f.Add(uint64(5), uint64(0x8000_0000_0000_0001), []byte{10, 3, 5, 4, 3, 0, 2, 4, 4, 2})
	traces := frozenTraces()
	f.Fuzz(func(t *testing.T, seed, derivable uint64, widths []byte) {
		src := rand.New(rand.NewPCG(seed, 0))
		var base [nPacked]uint64
		for c := range base {
			base[c] = src.Uint64()
		}
		field := func(c int) uint64 {
			w := 0
			if len(widths) > 0 {
				w = int(widths[c%len(widths)]) % 65
			}
			return base[c] + src.Uint64()&(^uint64(0)>>(64-w))
		}
		_, got := checkRoundTrip(t, doneBlock(func(i int) jobRec {
			r := jobRec{
				id:         int(field(colID) + uint64(i)),
				emissions:  math.Float64frombits(src.Uint64()),
				arrival:    int32(field(colArrival)),
				length:     int32(field(colLength)),
				slack:      int32(field(colSlack)),
				migrations: int32(field(colMigrations)),
				tenantI:    uint32(field(colTenant)),
				originI:    int16(field(colOrigin)),
				flags:      uint8(field(colFlags)) & (flagInterruptible | flagMigratable),
			}
			r.lastRun = int32(uint64(r.arrival) + field(colLastRun))
			r.regionI = int16(uint64(r.originI) + field(colRegion))
			if derivable>>(i%64)&1 == 1 {
				r.regionI = int16(src.IntN(frozenRegions))
				r.length = int32(1 + src.IntN(frozenHours))
				r.lastRun = r.length - 1 + int32(src.IntN(frozenHours-int(r.length)+1))
				r = derived(r, traces)
			}
			return r
		}), traces)
		if want := bits.OnesCount64(derivable) * recBlock / 64; got < want {
			t.Fatalf("%d records derive their emissions, want at least %d", got, want)
		}
	})
}
