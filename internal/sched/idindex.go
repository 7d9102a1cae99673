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
// A record block whose id column — each id less its position — spans
// fewer than 1<<denseWidth values is its own index: an id can sit only
// at the few positions that column allows (recBlocks.find), so the index
// keeps one entry for the whole block. The rule is checked record by
// record as Submit writes the tail block (add), so a block is dense from
// its first record, hot or frozen alike, and freezing it does no index
// work. Sequential and auto-assigned ids make such blocks, so ordinary
// traffic costs the index nothing, backlogged or done. The record that
// breaks the rule spills its block's earlier ids into the hash tables,
// once; the block stays there.
//
// Every id of a sparse block is in a hash table: a slot holds seq+1 (0
// is empty) and the slot's key is blocks.id(seq), the record's id, which
// every lookup is about to read anyway. A slot is 4 bytes; the Go map
// this replaced kept a second copy of every id and cost 37 bytes a job.
// A lookup tries the dense blocks first: their list is ordered and a few
// bytes a block, while a table miss reads the record of every slot in
// its probe chain.
//
// The tables are extendible hashing. A directory, indexed by the hash's
// top depth bits, points at fixed-size linear-probe tables (home slot:
// the hash's low bits); a table that reaches 7/8 full splits in two on
// its next hash bit, on its own, and the directory doubles only when
// the splitting table was already as deep as the directory. So a
// growing index runs between 7/16 and 7/8 full (4.6–9.1 bytes an id),
// and the worst single put re-homes one table's 3584 entries, where one
// big table doubling at 2²⁰ ids re-homed all of them (33 ms against
// 0.34 ms when this was written) inside a Submit that holds idMu. The
// directory is empty until the first sparse id, and tables never merge,
// so the index keeps as many tables as the most sparse ids it ever held.
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
	depth uint8        // len(dir) == 1<<depth, once there is a table
	dir   []*idTable   // by the hash's top depth bits; a shallower table fills a run of entries
	dense []denseBlock // the full blocks that index themselves, by lo ascending
	tail  idTail       // the last block, the one add writes
}

// denseBlock is a block that is its own index: record i holds id
// lo+i+v, with v from 0 to span.
type denseBlock struct {
	lo   int    // the least id less its position
	blk  uint32 // the block's position in the block directory
	span uint8  // the greatest id less its position, less lo
	asc  bool   // its ids ascend with position, as auto-assigned ids do
}

// idTail is the id column of the last block, as far as it is written.
// While it is dense it is searched as a denseBlock of n records, and it
// joins dense when the next block opens.
type idTail struct {
	denseBlock
	n      uint32 // records written
	sparse bool   // the column broke the rule: every id of the block is in the tables
}

const (
	idTableSlots = 1 << 12
	idTableMask  = idTableSlots - 1
	idTableFull  = idTableSlots / 8 * 7 // a table holding this many splits before it takes another

	// denseWidth bounds a dense block's id column: it spans fewer than
	// 1<<denseWidth values, so find scans at most that many positions.
	denseWidth = 8
	// denseSpan bounds a dense block's ids: each is less than denseSpan
	// above lo.
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

func newIDIndex() idIndex { return idIndex{seed: rand.Uint64()} }

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

// table returns the table that holds, or would hold, a key hashing to
// h. There must be one.
func (x *idIndex) table(h uint64) *idTable { return x.dir[h>>(64-x.depth)] }

// get returns the sequence number registered for id.
func (x *idIndex) get(b recBlocks, id int) (uint32, bool) {
	// The dense blocks that can hold id start less than denseSpan below
	// it. Each holds recBlock distinct ids within denseSpan of its lo, so
	// at most two of them do.
	k := x.denseUpTo(id)
	for k--; k >= 0 && uint64(id)-uint64(x.dense[k].lo) < denseSpan; k-- {
		d := &x.dense[k]
		if i, ok := b.find(d, id, recBlock); ok {
			return d.blk*recBlock + i, true
		}
	}
	if t := &x.tail; t.n > 0 && !t.sparse && uint64(id)-uint64(t.lo) < denseSpan {
		if i, ok := b.find(&t.denseBlock, id, t.n); ok {
			return t.blk*recBlock + i, true
		}
	}
	return x.hashed(b, id)
}

// hashed returns the sequence number the tables hold for id.
func (x *idIndex) hashed(b recBlocks, id int) (uint32, bool) {
	if len(x.dir) == 0 {
		return 0, false
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

// find returns the position of id among the first n records of dense
// block d. Record i holds id lo+i+v, v from 0 to span, so id = lo+t can
// sit only at positions t-span to t. The first guess is t less the value
// at t, which is right wherever the column is flat around t — always at
// span 0, as consecutive ids make it. If the block's ids ascend, v never falls,
// so the guess holds an id got at most id, and each position past it
// adds at least 1: id lies at most id-got positions past the guess, a
// range that is binary-searched. Otherwise the positions are scanned.
func (b recBlocks) find(d *denseBlock, id int, n uint32) (uint32, bool) {
	e := &b[d.blk]
	t := uint64(id) - uint64(d.lo)
	lo, end := t-min(t, uint64(d.span)), min(t+1, uint64(n))
	if t < uint64(n) {
		v := uint64(e.id(uint32(t))) - uint64(d.lo) - t
		if v == 0 { // record t's id is lo+t
			return uint32(t), true
		}
		if i := t - v; i <= t {
			got := e.id(uint32(i))
			if got == id {
				return uint32(i), true
			}
			if d.asc && got < id {
				lo, end = i+1, min(end, i+1+uint64(id-got))
			}
		}
	}
	if d.asc {
		for hi := end; lo < hi; {
			if m := (lo + hi) / 2; e.id(uint32(m)) < id {
				lo = m + 1
			} else {
				hi = m
			}
		}
		end = min(end, lo+1)
	}
	for i := lo; i < end; i++ {
		if e.id(uint32(i)) == id {
			return uint32(i), true
		}
	}
	return 0, false
}

// add indexes id, just written at seq, the next record of the store. The
// caller has checked that id is absent (get). If seq opens a block, the
// tail it closes joins dense, if it is dense. A record whose id less its
// position takes the tail's column to 1<<denseWidth values or more, or
// whose block could hold ids past math.MaxInt — where they would wrap
// round to the lowest and lo would not order the block — turns the tail
// sparse: its earlier ids are put in the tables, and every later one.
// Both conditions only ever fail for good as records are added, so a
// block's verdict is that of its whole column, however far it is
// written.
func (x *idIndex) add(b recBlocks, id int, seq uint32) {
	t, i := &x.tail, seq%recBlock
	v := int(uint64(id) - uint64(i))
	if i == 0 {
		if t.n > 0 && !t.sparse {
			x.dense = slices.Insert(x.dense, x.denseUpTo(t.lo), t.denseBlock)
		}
		*t = idTail{denseBlock: denseBlock{lo: v, blk: seq / recBlock, asc: true}}
	}
	t.n++
	if !t.sparse {
		lo, hi := min(t.lo, v), max(t.lo+int(t.span), v)
		if uint64(hi-lo) < 1<<denseWidth && hi <= math.MaxInt-denseSpan {
			t.lo, t.span = lo, uint8(hi-lo)
			t.asc = t.asc && (i == 0 || id > b.id(seq-1))
			return
		}
		t.sparse = true
		for s := seq - i; s < seq; s++ {
			x.put(b, b.id(s), s)
		}
	}
	x.put(b, id, seq)
}

// rollback takes back the records from seq first to end, indexed since
// the tail was m by a batch that failed part-way; they are still in b.
// Their slots go, and so do the dense entries of the blocks they closed,
// and the tail is m again. If they spilled m's block, its earlier ids
// leave the tables too, and it is dense again.
func (x *idIndex) rollback(b recBlocks, m idTail, first, end uint32) {
	if start := m.blk * recBlock; !m.sparse && m.n > 0 {
		if _, spilled := x.hashed(b, b.id(start)); spilled {
			first = start
		}
	}
	for seq := first; seq < end; seq++ {
		x.del(b, b.id(seq), seq)
	}
	x.dense = slices.DeleteFunc(x.dense, func(d denseBlock) bool { return d.blk >= m.blk })
	x.tail = m
}

// put registers id at seq in the tables. The record at seq must be
// written before the next put, which may split this table and read its
// keys back.
func (x *idIndex) put(b recBlocks, id int, seq uint32) {
	if len(x.dir) == 0 {
		x.dir = []*idTable{{slots: new([idTableSlots]uint32)}}
	}
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

// del unregisters id at seq from the tables, if they hold it: Submit's
// undo of a batch that failed part-way (rollback). The slots after the
// hole shift back over it (no tombstones), so a rolled-back batch leaves
// every probe chain as short as if it had never been sent.
func (x *idIndex) del(b recBlocks, id int, seq uint32) {
	if len(x.dir) == 0 {
		return
	}
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
