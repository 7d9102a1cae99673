package sched

import (
	"math"
	"math/rand/v2"
	"slices"
	"sort"
)

// idIndex maps a job id to its submission sequence without storing the
// id, in two parts.
//
// A frozen block whose id column — each id less its position — packs
// at denseWidth bits or fewer is its own index: an id can sit only at
// the few positions that column allows (frozenBlock.find), so the index
// keeps one entry for the whole block in dense, sorted by the block's
// lowest id. Sequential and auto-assigned ids make such blocks, so a
// done job of ordinary traffic costs the index nothing.
//
// Every other id — in a hot block, or in a frozen one whose ids are
// scattered — is in a hash table: a slot holds seq+1 (0 is empty) and
// the slot's key is blocks.id(seq), the record's id, which every lookup
// is about to read anyway. A slot is 4 bytes; the Go map this replaced
// kept a second copy of every id and cost 37 bytes a job. A lookup tries
// the dense blocks first: their list is ordered and a few bytes a block,
// while a table miss reads the record of every slot in its probe chain.
//
// The tables are extendible hashing. A directory, indexed by the hash's
// top depth bits, points at fixed-size linear-probe tables (home slot:
// the hash's low bits); a table that reaches 7/8 full splits in two on
// its next hash bit, on its own, and the directory doubles only when
// the splitting table was already as deep as the directory. So a
// growing index runs between 7/16 and 7/8 full (4.6–9.1 bytes an id),
// and the worst single put re-homes one table's 3584 entries, where one
// big table doubling at 2²⁰ ids re-homed all of them (33 ms against
// 0.34 ms when this was written) inside a Submit that holds idMu. Tables
// never merge: the slots a dense block's ids leave take the next hot
// ids, so the index keeps as many tables as the most ids it ever held in
// them at once.
//
// Ids are client-chosen and linear probing degrades to a scan if
// many keys share a home slot, so the hash is a full 64-bit mixer over
// id ^ seed with a seed drawn at random per index: which ids collide
// cannot be known from outside. The seed decides only where a slot
// sits. Nothing iterates the tables into an output — images, placements
// and stats are built from the records in sequence order — so two
// fleets with different seeds are byte-identical to any observer.
//
// The index has no lock of its own: it is part of the job store, under
// idMu. Every method takes the record blocks the slots point into, and
// reads nothing of them but ids.
type idIndex struct {
	seed  uint64
	depth uint8        // len(dir) == 1<<depth
	dir   []*idTable   // by the hash's top depth bits; a shallower table fills a run of entries
	dense []denseBlock // the frozen blocks that index themselves, by lo ascending
}

// denseBlock is a frozen block that is its own index: every id in it is
// in [lo, lo+denseSpan).
type denseBlock struct {
	lo  int    // the block's id column base
	blk uint32 // its position in the block directory
	asc bool   // its ids ascend with position, as auto-assigned ids do
}

const (
	idTableSlots = 1 << 12
	idTableMask  = idTableSlots - 1
	idTableFull  = idTableSlots / 8 * 7 // a table holding this many splits before it takes another

	// denseWidth is the widest id column a frozen block may have and be
	// its own index: find then scans at most 1<<denseWidth positions.
	denseWidth = 8
	// denseSpan bounds a dense block's ids: record i holds lo+i+v, with
	// v under 1<<denseWidth.
	denseSpan = recBlock + 1<<denseWidth - 1
)

// idTable is one linear-probe table. The slots are their own
// allocation so that they fill a 16 KiB size class exactly, in no-scan
// memory.
type idTable struct {
	slots *[idTableSlots]uint32
	n     int32 // occupied slots
	depth uint8 // top hash bits every key in the table shares
}

func newIDIndex() idIndex {
	return idIndex{
		seed: rand.Uint64(),
		dir:  []*idTable{{slots: new([idTableSlots]uint32)}},
	}
}

// hash is the splitmix64 finalizer — a bijection, so distinct ids never
// share all 64 bits and a split always separates a full table
// eventually.
func (x *idIndex) hash(id int) uint64 {
	h := uint64(id) ^ x.seed
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// table returns the table that holds, or would hold, a key hashing to h.
func (x *idIndex) table(h uint64) *idTable { return x.dir[h>>(64-x.depth)] }

// get returns the sequence number registered for id.
func (x *idIndex) get(b recBlocks, id int) (uint32, bool) {
	// The dense blocks that can hold id start less than denseSpan below
	// it. Each holds recBlock distinct ids within denseSpan of its lo, so
	// at most two of them do.
	k := x.denseUpTo(id)
	for k--; k >= 0 && uint64(id)-uint64(x.dense[k].lo) < denseSpan; k-- {
		d := &x.dense[k]
		if i, ok := b[d.blk].frozen.find(id, d.asc); ok {
			return d.blk*recBlock + i, true
		}
	}
	h := x.hash(id)
	t := x.table(h)
	for i := uint32(h) & idTableMask; t.slots[i] != 0; i = (i + 1) & idTableMask {
		if s := t.slots[i]; b.id(s-1) == id {
			return s - 1, true
		}
	}
	return 0, false
}

// denseUpTo returns the number of dense blocks whose lo is at most id.
func (x *idIndex) denseUpTo(id int) int {
	return sort.Search(len(x.dense), func(k int) bool { return x.dense[k].lo > id })
}

// dense reports whether the block is its own index: its id column is
// at most denseWidth bits wide, and its span does not run past
// math.MaxInt, where ids wrap round to the lowest and lo would not
// order it.
func (fb *frozenBlock) dense() bool {
	c := &fb.cols[colID]
	return c.width <= denseWidth && int(c.base) <= math.MaxInt-denseSpan
}

// find returns the position of id in a dense block. Record i holds id
// base+i+v, v being its column value less the base and under
// 1<<width, so id = base+t can sit only at positions t-(1<<width)+1 to
// t. The first guess is t less the value at t, which is right wherever
// the column is flat around t — always at width 0. If the block's ids
// ascend, v never falls, so the guess holds an id got at most id, and
// each position past it adds at least 1: id lies at most id-got
// positions past the guess, a range that is binary-searched. Otherwise
// the positions are scanned.
func (fb *frozenBlock) find(id int, asc bool) (uint32, bool) {
	c := &fb.cols[colID]
	t := uint64(id) - c.base
	lo, end := t-min(t, uint64(1)<<c.width-1), min(t+1, recBlock)
	if t < recBlock {
		v := fb.get(colID, uint32(t)) - c.base
		if v == 0 { // record t's id is base+t
			return uint32(t), true
		}
		if i := t - v; i <= t {
			got := fb.id(uint32(i))
			if got == id {
				return uint32(i), true
			}
			if asc && got < id {
				lo, end = i+1, min(end, i+1+uint64(id-got))
			}
		}
	}
	if asc {
		for hi := end; lo < hi; {
			if m := (lo + hi) / 2; fb.id(uint32(m)) < id {
				lo = m + 1
			} else {
				hi = m
			}
		}
		end = min(end, lo+1)
	}
	for i := lo; i < end; i++ {
		if fb.id(uint32(i)) == id {
			return uint32(i), true
		}
	}
	return 0, false
}

// put registers id at seq. The caller has checked that id is absent
// (get); the record at seq must be written before the next put, which
// may split this table and read its keys back.
func (x *idIndex) put(b recBlocks, id int, seq uint32) {
	h := x.hash(id)
	t := x.table(h)
	for t.n >= idTableFull {
		x.split(b, t, h)
		t = x.table(h)
	}
	t.insert(h, seq+1)
}

func (t *idTable) insert(h uint64, s uint32) {
	i := uint32(h) & idTableMask
	for t.slots[i] != 0 {
		i = (i + 1) & idTableMask
	}
	t.slots[i] = s
	t.n++
}

// split divides t, the table of hash h, on the next hash bit: keys with
// the bit clear are re-homed in t, keys with it set move to a new table
// that takes over the upper half of t's directory run.
func (x *idIndex) split(b recBlocks, t *idTable, h uint64) {
	if t.depth == x.depth {
		dir := make([]*idTable, 2*len(x.dir))
		for i, e := range x.dir {
			dir[2*i], dir[2*i+1] = e, e
		}
		x.dir, x.depth = dir, x.depth+1
	}
	run := 1 << (x.depth - t.depth) // directory entries pointing at t
	lo := int(h>>(64-t.depth)) * run
	old := *t.slots
	*t.slots = [idTableSlots]uint32{}
	t.n, t.depth = 0, t.depth+1
	u := &idTable{slots: new([idTableSlots]uint32), depth: t.depth}
	for i := lo + run/2; i < lo+run; i++ {
		x.dir[i] = u
	}
	for _, s := range old[:] {
		if s == 0 {
			continue
		}
		kh := x.hash(b.id(s - 1))
		if kh>>(64-t.depth)&1 == 0 {
			t.insert(kh, s)
		} else {
			u.insert(kh, s)
		}
	}
}

// del unregisters id, registered at seq: Submit's undo of a batch that
// failed part-way, and a dense block's ids leaving the tables. The
// slots after the hole shift back over it (no tombstones), so a
// rolled-back batch leaves every probe chain as short as if it had never
// been sent.
func (x *idIndex) del(b recBlocks, id int, seq uint32) {
	h := x.hash(id)
	t := x.table(h)
	i := uint32(h) & idTableMask
	for ; t.slots[i] != seq+1; i = (i + 1) & idTableMask {
		if t.slots[i] == 0 {
			return
		}
	}
	for j := (i + 1) & idTableMask; t.slots[j] != 0; j = (j + 1) & idTableMask {
		s := t.slots[j]
		home := uint32(x.hash(b.id(s-1))) & idTableMask
		// s may fill the hole unless its home lies after the hole on the
		// way to j: it must stay reachable by a probe starting at home.
		if (j-home)&idTableMask >= (j-i)&idTableMask {
			t.slots[i] = s
			i = j
		}
	}
	t.slots[i] = 0
	t.n--
}

// blockFrozen is told that block blk has just been swapped for its frozen
// form. If the block is dense its ids leave the tables and it joins
// dense, sorted by lo.
func (x *idIndex) blockFrozen(b recBlocks, blk uint32) {
	fb := &b[blk].frozen
	if !fb.dense() {
		return
	}
	d := denseBlock{lo: int(fb.cols[colID].base), blk: blk, asc: true}
	for i := uint32(0); i < recBlock; i++ {
		id := fb.id(i)
		d.asc = d.asc && (i == 0 || id > fb.id(i-1))
		x.del(b, id, blk*recBlock+i)
	}
	x.dense = slices.Insert(x.dense, x.denseUpTo(d.lo), d)
}
