package sched

import (
	"math"
	"math/bits"
)

// frozenBlock is a full record block whose jobs are all done, re-encoded
// once Step has no more reason to write to it: every field but emissions
// is frame-of-reference bit-packed, so a block of done jobs costs its
// emissions' 8 bytes a job plus however many bits each field actually
// spans in the block — ids submitted together, hours a few apart, a
// handful of tenants and regions. Done is implied. A frozen block is
// immutable; its records are read by value (frozenBlock.rec), never by
// pointer.
//
// words holds one column per packed field — recBlock values of the
// column's width, offset from its base; recBlock is a multiple of 64, so
// every column starts on a word — then the records' emissions as raw
// float64 bits, one word each in sequence order. Because the emissions
// come last, a packed value's next word always exists, so put and get
// touch it unconditionally. The block header lives in the directory entry
// and words is the only allocation, so freezing a block costs the one
// allocation opening it did.
type frozenBlock struct {
	cols  [nPacked]packedCol
	words []uint64
}

// packedCol is one bit-packed field of a frozen block.
type packedCol struct {
	base  uint64 // the column's signed minimum, as its two's-complement bits
	off   uint32 // the column's first word in frozenBlock.words
	width uint8  // bits per value, 0 to 64
}

// The packed fields of jobRec, in column order.
const (
	colID = iota
	colArrival
	colLength
	colSlack
	colLastRun
	colMigrations
	colTenant
	colOrigin
	colRegion
	colFlags // interruptible and migratable; done is implied
	nPacked
)

// packed returns r's packed fields in column order, each sign-extended to
// 64 bits, so that one frame of reference in uint64 arithmetic fits any
// value: the widest column, ids from math.MinInt64 to math.MaxInt64, is 64
// bits wide.
func (r *jobRec) packed() [nPacked]uint64 {
	return [nPacked]uint64{
		colID:         uint64(r.id),
		colArrival:    uint64(r.arrival),
		colLength:     uint64(r.length),
		colSlack:      uint64(r.slack),
		colLastRun:    uint64(r.lastRun),
		colMigrations: uint64(r.migrations),
		colTenant:     uint64(r.tenantI),
		colOrigin:     uint64(r.originI),
		colRegion:     uint64(r.regionI),
		colFlags:      uint64(r.flags &^ flagDone),
	}
}

// freeze packs a full block of done records.
func freeze(hot *[recBlock]jobRec) frozenBlock {
	lo, hi := hot[0].packed(), hot[0].packed()
	for i := range hot {
		for c, v := range hot[i].packed() {
			lo[c] = uint64(min(int64(lo[c]), int64(v)))
			hi[c] = uint64(max(int64(hi[c]), int64(v)))
		}
	}
	var fb frozenBlock
	off := uint32(0)
	for c := range fb.cols {
		width := bits.Len64(hi[c] - lo[c])
		fb.cols[c] = packedCol{base: lo[c], off: off, width: uint8(width)}
		off += uint32(width * recBlock / 64)
	}
	fb.words = make([]uint64, off+recBlock)
	emissions := fb.words[off:]
	for i := range hot {
		emissions[i] = math.Float64bits(hot[i].emissions)
		for c, v := range hot[i].packed() {
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

// rec unpacks record i.
func (fb *frozenBlock) rec(i uint32) jobRec {
	return jobRec{
		id:         int(fb.get(colID, i)),
		emissions:  math.Float64frombits(fb.words[len(fb.words)-recBlock+int(i)]),
		arrival:    int32(fb.get(colArrival, i)),
		length:     int32(fb.get(colLength, i)),
		slack:      int32(fb.get(colSlack, i)),
		lastRun:    int32(fb.get(colLastRun, i)),
		migrations: int32(fb.get(colMigrations, i)),
		tenantI:    uint32(fb.get(colTenant, i)),
		originI:    int16(fb.get(colOrigin, i)),
		regionI:    int16(fb.get(colRegion, i)),
		flags:      uint8(fb.get(colFlags, i)) | flagDone,
	}
}
