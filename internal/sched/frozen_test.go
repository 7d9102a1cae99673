package sched

import (
	"math"
	"math/rand/v2"
	"testing"
)

// doneBlock returns a full block of done records built by rec.
func doneBlock(rec func(i int) jobRec) *[recBlock]jobRec {
	hot := new([recBlock]jobRec)
	for i := range hot {
		hot[i] = rec(i)
		hot[i].flags |= flagDone
	}
	return hot
}

// checkRoundTrip freezes hot and holds every record read back to the
// one frozen, emissions bit for bit (-0 is not 0, a NaN is itself). It
// returns the frozen block.
func checkRoundTrip(t *testing.T, hot *[recBlock]jobRec) frozenBlock {
	t.Helper()
	fb := freeze(hot)
	bits := 0
	for _, c := range fb.cols {
		bits += int(c.width)
	}
	if want := recBlock + bits*recBlock/64; len(fb.words) != want {
		t.Fatalf("%d words for %d bits a record, want %d", len(fb.words), bits, want)
	}
	for i := range hot {
		got, want := fb.rec(uint32(i)), hot[i]
		if math.Float64bits(got.emissions) != math.Float64bits(want.emissions) {
			t.Fatalf("record %d: emissions %x, want %x", i, math.Float64bits(got.emissions), math.Float64bits(want.emissions))
		}
		got.emissions, want.emissions = 0, 0
		if got != want {
			t.Fatalf("record %d:\ngot  %+v\nwant %+v", i, got, want)
		}
		if id := fb.get(colID, uint32(i)); int(id) != hot[i].id {
			t.Fatalf("record %d: id column %d, want %d", i, int(id), hot[i].id)
		}
	}
	return fb
}

// typicalRec is a record as Step leaves a block of them: ids submitted
// together, hours a few apart, a handful of tenants and regions.
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
// of its range, and emissions whose bits a float comparison would lose.
func TestFrozenBlockRoundTrip(t *testing.T) {
	alternate := func(i int, a, b int64) int64 {
		if i%2 == 0 {
			return a
		}
		return b
	}
	for _, c := range []struct {
		name   string
		rec    func(i int) jobRec
		widths map[int]uint8 // column → the width it must be packed at
	}{
		{"a block as Step leaves it", typicalRec, map[int]uint8{colID: 10, colTenant: 2, colFlags: 2}},
		{"every record alike: width 0", func(int) jobRec { return typicalRec(5) }, map[int]uint8{
			colID: 0, colArrival: 0, colLength: 0, colSlack: 0, colLastRun: 0, colMigrations: 0,
			colTenant: 0, colOrigin: 0, colRegion: 0, colFlags: 0,
		}},
		{"ids math.MinInt64 and math.MaxInt64: width 64", func(i int) jobRec {
			r := typicalRec(i)
			r.id = int(alternate(i, math.MinInt64, math.MaxInt64))
			return r
		}, map[int]uint8{colID: 64}},
		{"random ids: width 64", func(i int) jobRec {
			r := typicalRec(i)
			r.id = int(rand.New(rand.NewPCG(uint64(i), 7)).Uint64())
			return r
		}, map[int]uint8{colID: 64}},
		{"hours and counters 0 and math.MaxInt32", func(i int) jobRec {
			r := typicalRec(i)
			h := int32(alternate(i/3, 0, math.MaxInt32))
			r.arrival, r.length, r.slack, r.lastRun, r.migrations = h, math.MaxInt32-h, h, h, h
			return r
		}, map[int]uint8{colArrival: 31, colLength: 31, colSlack: 31, colLastRun: 31, colMigrations: 31}},
		{"never run: lastRun and region -1", func(i int) jobRec {
			r := typicalRec(i)
			r.lastRun, r.regionI = int32(alternate(i, -1, 9)), int16(alternate(i, -1, math.MaxInt16))
			return r
		}, map[int]uint8{colLastRun: 4, colRegion: 16}},
		{"tenant indices 0 and math.MaxUint32", func(i int) jobRec {
			r := typicalRec(i)
			r.tenantI = uint32(alternate(i, 0, math.MaxUint32))
			return r
		}, map[int]uint8{colTenant: 32}},
		{"emissions -0, subnormals, infinities and NaN", func(i int) jobRec {
			r := typicalRec(i)
			r.emissions = []float64{
				math.Copysign(0, -1), 0, math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
				math.Float64frombits(0x000f_ffff_ffff_ffff), math.Inf(1), math.Inf(-1), math.NaN(),
				math.Float64frombits(0x7ff8_0000_dead_beef), math.MaxFloat64,
			}[i%10]
			return r
		}, nil},
	} {
		t.Run(c.name, func(t *testing.T) {
			fb := checkRoundTrip(t, doneBlock(c.rec))
			for col, want := range c.widths {
				if got := fb.cols[col].width; got != want {
					t.Errorf("column %d packed at width %d, want %d", col, got, want)
				}
			}
		})
	}
}

// FuzzFrozenBlock: any block of done records packs and unpacks to
// itself. Each column's values are a random base plus a random offset of
// the width the input asks for, truncated to the field's own type.
func FuzzFrozenBlock(f *testing.F) {
	f.Add(uint64(1), []byte{10, 3, 5, 4, 3, 0, 2, 4, 4, 2})
	f.Add(uint64(2), []byte{64, 32, 32, 32, 32, 32, 32, 16, 16, 2})
	f.Add(uint64(3), []byte{0})
	f.Add(uint64(4), []byte{63, 1, 31, 0, 33, 17, 64, 15, 9, 1})
	f.Fuzz(func(t *testing.T, seed uint64, widths []byte) {
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
		checkRoundTrip(t, doneBlock(func(int) jobRec {
			return jobRec{
				id:         int(field(colID)),
				emissions:  math.Float64frombits(src.Uint64()),
				arrival:    int32(field(colArrival)),
				length:     int32(field(colLength)),
				slack:      int32(field(colSlack)),
				lastRun:    int32(field(colLastRun)),
				migrations: int32(field(colMigrations)),
				tenantI:    uint32(field(colTenant)),
				originI:    int16(field(colOrigin)),
				regionI:    int16(field(colRegion)),
				flags:      uint8(field(colFlags)) & (flagInterruptible | flagMigratable),
			}
		}))
	})
}
