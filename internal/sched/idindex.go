package sched

import "math/rand/v2"

// idIndex maps a job id to its submission sequence without storing the
// id: a slot holds seq+1 (0 is empty) and the slot's key is
// blocks.id(seq) — the record's id, from a hot block's record or a
// frozen block's id column, and the record every lookup is about to read
// anyway. Four bytes a slot is all the index owns; the Go map it
// replaced kept a second copy of every id in a 16-byte slot and cost 37
// bytes a job.
//
// The shape is extendible hashing. A directory, indexed by the hash's
// top depth bits, points at fixed-size linear-probe tables (home slot:
// the hash's low bits); a table that reaches 7/8 full splits in two on
// its next hash bit, on its own, and the directory doubles only when
// the splitting table was already as deep as the directory. So the
// tables run between 7/16 and 7/8 full at any population (4.6–9.1 bytes
// a job), and the worst single put re-homes one table's 3584 entries —
// one big table doubling at 2²⁰ jobs re-homes all of them (33 ms
// against 0.34 ms when this was written), inside a Submit that holds
// idMu.
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
	depth uint8      // len(dir) == 1<<depth
	dir   []*idTable // by the hash's top depth bits; a shallower table fills a run of entries
}

const (
	idTableSlots = 1 << 12
	idTableMask  = idTableSlots - 1
	idTableFull  = idTableSlots / 8 * 7 // a table holding this many splits before it takes another
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
	h := x.hash(id)
	t := x.table(h)
	for i := uint32(h) & idTableMask; ; i = (i + 1) & idTableMask {
		s := t.slots[i]
		if s == 0 {
			return 0, false
		}
		if b.id(s-1) == id {
			return s - 1, true
		}
	}
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

// del unregisters id — Submit's undo of a batch that failed part-way.
// The slots after the hole shift back over it (no tombstones), so a
// rolled-back batch leaves every probe chain as short as if it had never
// been sent. Tables are not merged back: where a slot sits is not
// observable.
func (x *idIndex) del(b recBlocks, id int) {
	h := x.hash(id)
	t := x.table(h)
	i := uint32(h) & idTableMask
	for ; ; i = (i + 1) & idTableMask {
		s := t.slots[i]
		if s == 0 {
			return
		}
		if b.id(s-1) == id {
			break
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
