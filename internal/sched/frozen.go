package sched

import (
	"math"
	"math/bits"

	"carbonshift/internal/trace"
)

// frozenBlock is a full record block whose jobs are all done, re-encoded
// once Step has no more reason to write to it: it stores only what it
// cannot derive. Every field but emissions is frame-of-reference
// bit-packed, three of them against a neighbour — the id less the
// record's position in the block, the region less the origin, the last
// run less the arrival — so a block of jobs submitted together and run
// where they came from spans a few bits a field. Emissions are stored
// only where the trace cannot give them back: a job that ran its whole
// length in one region without a break paid exactly the sum Step added
// up, re-summed on read (derivedEmissions). Done is implied. A frozen
// block is immutable; its records are read by value (frozenBlock.rec,
// frozenBlock.emissions), never by pointer.
//
// words holds one column per packed field — recBlock values of the
// column's width, offset from its base; recBlock is a multiple of 64, so
// every column starts on a word — then a bitmap of recBlock bits, set for
// each record whose emissions the freeze re-summed to the bit, then the
// raw float64 bits of every other record's emissions, densely in
// sequence order. Because the bitmap follows the columns, a packed
// value's next word always exists, so put and get touch it
// unconditionally. The block header lives in the directory entry and
// words is the only allocation, so freezing a block costs the one
// allocation opening it did.
type frozenBlock struct {
	cols [nPacked]packedCol
	// stored counts, per bitmap word, the records before it whose
	// emissions are stored: the rank that finds a record's raw bits
	// without counting the whole bitmap.
	stored [recBlock / 64]uint16
	words  []uint64
}

// packedCol is one bit-packed field of a frozen block.
type packedCol struct {
	base  uint64 // the column's signed minimum, as its two's-complement bits
	off   uint32 // the column's first word in frozenBlock.words
	width uint8  // bits per value, 0 to 64
}

// The packed fields of jobRec, in column order.
const (
	colID = iota // less the record's position in its block
	colArrival
	colLength
	colSlack
	colLastRun // less the arrival
	colMigrations
	colTenant
	colOrigin
	colRegion // less the origin
	colFlags  // interruptible and migratable; done is implied
	nPacked
)

// packed returns the packed fields of r, the record at position i of its
// block, in column order, each sign-extended to 64 bits and the
// neighbour columns taken in wrapping uint64 arithmetic, so that one
// frame of reference fits any value: the widest column, ids from
// math.MinInt64 to math.MaxInt64, is 64 bits wide.
func (r *jobRec) packed(i int) [nPacked]uint64 {
	return [nPacked]uint64{
		colID:         uint64(r.id) - uint64(i),
		colArrival:    uint64(r.arrival),
		colLength:     uint64(r.length),
		colSlack:      uint64(r.slack),
		colLastRun:    uint64(r.lastRun) - uint64(r.arrival),
		colMigrations: uint64(r.migrations),
		colTenant:     uint64(r.tenantI),
		colOrigin:     uint64(r.originI),
		colRegion:     uint64(r.regionI) - uint64(r.originI),
		colFlags:      uint64(r.flags &^ flagDone),
	}
}

// derivedEmissions re-sums a done job's emissions the way Step built
// them, as if it ran its length hours up to lastRun in its region without
// a break: from 0, one trace sample an hour, in hour order. ok is false
// where that is not within the traces — no region, no hours, or hours
// before the first sample or past the last — and nothing is read.
func derivedEmissions(r *jobRec, traces []*trace.Trace) (e float64, ok bool) {
	if r.regionI < 0 || int(r.regionI) >= len(traces) || r.length < 1 {
		return 0, false
	}
	ci := traces[r.regionI].CI
	first := int(r.lastRun) - int(r.length) + 1
	if first < 0 || int(r.lastRun) >= len(ci) {
		return 0, false
	}
	for _, x := range ci[first : int(r.lastRun)+1] {
		e += x
	}
	return e, true
}

// freeze packs a full block of done records, re-summing each one's
// emissions over traces, the fleet's by region index: where the sum
// matches the record bit for bit its bitmap bit is set, and otherwise
// the raw bits are stored — an interrupted or migrated job, an image
// restored over another trace, a -0 or a NaN.
func freeze(hot *[recBlock]jobRec, traces []*trace.Trace) frozenBlock {
	var derived [recBlock / 64]uint64
	lo, hi := hot[0].packed(0), hot[0].packed(0)
	for i := range hot {
		for c, v := range hot[i].packed(i) {
			lo[c] = uint64(min(int64(lo[c]), int64(v)))
			hi[c] = uint64(max(int64(hi[c]), int64(v)))
		}
		if e, ok := derivedEmissions(&hot[i], traces); ok && math.Float64bits(e) == math.Float64bits(hot[i].emissions) {
			derived[i/64] |= 1 << (i % 64)
		}
	}
	var fb frozenBlock
	off := uint32(0)
	for c := range fb.cols {
		width := bits.Len64(hi[c] - lo[c])
		fb.cols[c] = packedCol{base: lo[c], off: off, width: uint8(width)}
		off += uint32(width * recBlock / 64)
	}
	stored := 0
	for w, m := range derived {
		fb.stored[w] = uint16(stored)
		stored += 64 - bits.OnesCount64(m)
	}
	fb.words = make([]uint64, int(off)+len(derived)+stored)
	copy(fb.words[off:], derived[:])
	next := int(off) + len(derived) // the next stored value's word
	for i := range hot {
		if derived[i/64]&(1<<(i%64)) == 0 {
			fb.words[next] = math.Float64bits(hot[i].emissions)
			next++
		}
		for c, v := range hot[i].packed(i) {
			fb.cols[c].put(fb.words, i, v)
		}
	}
	return fb
}

// put stores v as record i's value of the column. Like get, it does not
// branch on where the value falls: the bits it ORs into the next word
// are zero unless the value straddles the two.
func (c *packedCol) put(words []uint64, i int, v uint64) {
	v -= c.base
	p := uint(i) * uint(c.width)
	w, s := uint(c.off)+p/64, p%64
	words[w] |= v << s
	words[w+1] |= v >> (64 - s)
}

// get returns the column's value for record i. It does not branch on
// the width: a value's bits past the word it starts in are in the next
// word, which always exists, and the mask drops whatever else that word
// holds — all of it at width 0.
func (fb *frozenBlock) get(col int, i uint32) uint64 {
	c := &fb.cols[col]
	p := uint(i) * uint(c.width)
	w, s := uint(c.off)+p/64, p%64
	v := fb.words[w]>>s | fb.words[w+1]<<(64-s)
	return c.base + v&(^uint64(0)>>(64-c.width))
}

// id returns record i's id.
func (fb *frozenBlock) id(i uint32) int { return int(fb.get(colID, i) + uint64(i)) }

// rec unpacks record i, all but its emissions, which are left zero: the
// readers that need them ask emissions, so the ones that do not never
// pay for the re-sum.
func (fb *frozenBlock) rec(i uint32) jobRec {
	arrival, origin := fb.get(colArrival, i), fb.get(colOrigin, i)
	return jobRec{
		id:         fb.id(i),
		arrival:    int32(arrival),
		length:     int32(fb.get(colLength, i)),
		slack:      int32(fb.get(colSlack, i)),
		lastRun:    int32(fb.get(colLastRun, i) + arrival),
		migrations: int32(fb.get(colMigrations, i)),
		tenantI:    uint32(fb.get(colTenant, i)),
		originI:    int16(origin),
		regionI:    int16(fb.get(colRegion, i) + origin),
		flags:      uint8(fb.get(colFlags, i)) | flagDone,
	}
}

// bitmapOff returns the bitmap's first word in words: the one after the
// last column.
func (fb *frozenBlock) bitmapOff() int {
	last := &fb.cols[nPacked-1]
	return int(last.off) + int(last.width)*recBlock/64
}

// emissions returns record i's emissions, r being rec(i): re-summed over
// traces — the ones the block was frozen over — where the freeze found
// the sum exact, the stored bits otherwise. The stored bits are found by
// rank, the word's count in the header plus one popcount, so a walk pays
// the same for every record.
func (fb *frozenBlock) emissions(i uint32, r *jobRec, traces []*trace.Trace) float64 {
	off := fb.bitmapOff()
	m, bit := fb.words[off+int(i/64)], uint64(1)<<(i%64)
	if m&bit != 0 {
		e, _ := derivedEmissions(r, traces)
		return e
	}
	k := int(fb.stored[i/64]) + bits.OnesCount64(^m&(bit-1))
	return math.Float64frombits(fb.words[off+recBlock/64+k])
}
