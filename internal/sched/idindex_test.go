package sched

import (
	"bytes"
	"math"
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"
	"time"

	"carbonshift/internal/rng"
)

type idShape struct {
	name string
	id   func(i int, src *rng.Source) int
}

// idShapes are the id populations the index is held to: what the
// partitions' auto-assignment and real clients produce, and the regular
// patterns a weak hash folds into one chain. Each returns the i-th id.
var idShapes = []idShape{
	{"sequential from a partition base", func(i int, _ *rng.Source) int { return 3*100_000_000 + i }},
	{"strided by 4096", func(i int, _ *rng.Source) int { return i * 4096 }},
	{"strided by 2^32", func(i int, _ *rng.Source) int { return i << 32 }},
	{"negative", func(i int, _ *rng.Source) int { return -1 - i }},
	{"MinInt and MaxInt inwards", func(i int, _ *rng.Source) int {
		if i%2 == 0 {
			return math.MinInt + i/2
		}
		return math.MaxInt - i/2
	}},
	{"random", func(_ int, src *rng.Source) int { return int(src.Uint64()) }},
}

// modelShapes are idShapes and then the edge cases of dense blocks: ids
// missing from inside a block's span, ids out of order within it, a run
// that wraps past math.MaxInt, and a run in order that one far id turns
// sparse wherever it falls in its block.
var modelShapes = append(slices.Clip(idShapes),
	idShape{"sequential with gaps", func(i int, _ *rng.Source) int { return i + i/5 }},
	idShape{"shuffled in runs of 64", func(i int, _ *rng.Source) int { return 1<<40 + i&^63 | i*37&63 }},
	idShape{"ascending past MaxInt", func(i int, _ *rng.Source) int { return math.MaxInt - 3*recBlock + i }},
	idShape{"sequential, every 777th far off", func(i int, _ *rng.Source) int {
		if i%777 == 776 {
			return -1<<50 - i
		}
		return 1<<45 + i
	}},
)

// shapeIDs returns ids from..from+n-1 of a shape, an index into
// modelShapes.
func shapeIDs(shape, from, n int, src *rng.Source) []int {
	ids := make([]int, n)
	for k := range ids {
		ids[k] = modelShapes[shape].id(from+k, src)
	}
	return ids
}

// idModel runs an idIndex over real record blocks beside the map it
// replaced, counting the spills it sees: a tail block that the dense
// rule held turning sparse, and such a spill taken back with its batch.
type idModel struct {
	x               idIndex
	blocks          recBlocks
	want            map[int]uint32
	spills, refused int
}

func newIDModel() *idModel { return &idModel{x: newIDIndex(), want: make(map[int]uint32)} }

// probe checks get against the map for ids and their neighbours.
func (m *idModel) probe(t testing.TB, ids []int) {
	t.Helper()
	for _, base := range ids {
		for _, id := range [3]int{base, base + 1, base - 1} {
			seq, ok := m.x.get(m.blocks, id)
			if want, present := m.want[id]; ok != present || seq != want {
				t.Fatalf("get(%d) = %d, %v; the map holds %d, %v", id, seq, ok, want, present)
			}
		}
	}
}

// next writes id as the store's next record, opening a block if it
// must, and returns its sequence number.
func (m *idModel) next(id int) uint32 {
	seq := uint32(len(m.want))
	if seq%recBlock == 0 {
		m.blocks = append(m.blocks, recBlockEntry{hot: new([recBlock]jobRec)})
	}
	m.blocks.hot(seq).id = id
	m.want[id] = seq
	return seq
}

// round submits ids the way Submit does — get, write the record, add —
// and then either keeps the batch or takes it back as a failed Submit
// would (rollback). Present and absent ids are probed before it returns.
func (m *idModel) round(t testing.TB, ids []int, keep bool) {
	t.Helper()
	nblocks, first, tail := len(m.blocks), uint32(len(m.want)), m.x.tail
	var added []int
	spilled := false // the batch spilled the block it found as the tail
	for _, id := range ids {
		seq, ok := m.x.get(m.blocks, id)
		if want, present := m.want[id]; ok != present || seq != want {
			t.Fatalf("get(%d) = %d, %v; the map holds %d, %v", id, seq, ok, want, present)
		}
		if ok {
			continue
		}
		seq = m.next(id)
		held := seq%recBlock > 0 && !m.x.tail.sparse
		m.x.add(m.blocks, id, seq)
		if held && m.x.tail.sparse {
			m.spills++
			spilled = spilled || seq/recBlock == tail.blk && tail.n > 0
		}
		added = append(added, id)
	}
	if !keep {
		m.x.rollback(m.blocks, tail, first, uint32(len(m.want)))
		for _, id := range added {
			delete(m.want, id)
		}
		m.blocks = m.blocks[:nblocks]
		if spilled {
			m.refused++
		}
	}
	m.probe(t, ids)
}

// putAll writes ids as the next records and puts each straight in the
// tables, as the ids of a sparse block are: the tables alone, whatever
// the shape.
func (m *idModel) putAll(ids []int) {
	for _, id := range ids {
		m.x.put(m.blocks, id, m.next(id))
	}
}

// hotFull lists the full blocks that are still hot: the ones a fleet
// may freeze next, in whatever order their jobs finish.
func (m *idModel) hotFull() []uint32 {
	var out []uint32
	for i := range m.blocks[:len(m.want)/recBlock] {
		if m.blocks[i].hot != nil {
			out = append(out, uint32(i))
		}
	}
	return out
}

// freeze freezes block blk, full and hot, as finishInBlock does: the
// index is not told. A block that is its own index then answers for
// every id its span could hold, present or not, from its packed ids.
func (m *idModel) freeze(t testing.TB, blk uint32) {
	t.Helper()
	e := &m.blocks[blk]
	e.frozen = freeze(e.hot, nil)
	e.hot = nil
	listed := slices.ContainsFunc(m.x.dense, func(d denseBlock) bool { return d.blk == blk })
	if !listed && (m.x.tail.blk != blk || m.x.tail.sparse) {
		return
	}
	lo := int(e.frozen.cols[colID].base)
	span := make([]int, denseSpan)
	for k := range span {
		span[k] = lo + k
	}
	m.probe(t, span)
}

// denseRule is the rule a block's ids are held to, computed apart from
// the index: the least and greatest id less its position, whether the
// ids ascend, and whether the block is its own index — a column spanning
// fewer than 1<<denseWidth values, whose ids cannot pass math.MaxInt.
func denseRule(ids []int) (d denseBlock, dense bool) {
	lo, hi := ids[0], ids[0]
	d.asc = true
	for i, id := range ids {
		v := int(uint64(id) - uint64(i))
		lo, hi = min(lo, v), max(hi, v)
		d.asc = d.asc && (i == 0 || id > ids[i-1])
	}
	d.lo, d.span = lo, uint8(hi-lo)
	return d, uint64(hi-lo) < 1<<denseWidth && hi <= math.MaxInt-denseSpan
}

// check verifies the whole index: every id resolves; each block is
// listed as dense — in the dense list when full, as the tail when last —
// exactly when denseRule says so, at its lo and span and marked
// ascending exactly when its ids ascend, and a frozen dense block packed
// at the same lo; the dense list is in order of lo; the directory and
// tables are well formed — each table of depth d fills one aligned run
// of 2^(depth-d) directory entries, counts its occupied slots exactly,
// and is never fuller than the split threshold — and they hold no id of
// a dense block and every id of a sparse one.
func (m *idModel) check(t testing.TB) {
	t.Helper()
	for id, want := range m.want {
		if seq, ok := m.x.get(m.blocks, id); !ok || seq != want {
			t.Fatalf("get(%d) = %d, %v; want %d", id, seq, ok, want)
		}
	}
	x := &m.x
	for k := 1; k < len(x.dense); k++ {
		if x.dense[k-1].lo >= x.dense[k].lo {
			t.Fatalf("dense entries %d and %d out of order", k-1, k)
		}
	}
	if len(m.blocks) == 0 && x.tail != (idTail{}) {
		t.Fatalf("an empty store has tail %+v", x.tail)
	}
	sparse := 0 // ids the tables must hold
	listed := 0
	for blk := range uint32(len(m.blocks)) {
		n := min(recBlock, uint32(len(m.want))-blk*recBlock)
		ids := make([]int, n)
		for i := range ids {
			ids[i] = m.blocks.id(blk*recBlock + uint32(i))
		}
		want, dense := denseRule(ids)
		want.blk = blk
		var got denseBlock
		if last := blk == uint32(len(m.blocks))-1; last {
			if x.tail.blk != blk || x.tail.n != n || x.tail.sparse == dense {
				t.Fatalf("tail %+v over block %d of %d records, dense %v", x.tail, blk, n, dense)
			}
			got = x.tail.denseBlock
		} else if k := slices.IndexFunc(x.dense, func(d denseBlock) bool { return d.blk == blk }); (k >= 0) != dense {
			t.Fatalf("block %d listed dense %v, its ids %v", blk, k >= 0, dense)
		} else if dense {
			got = x.dense[k]
			listed++
		}
		if !dense {
			sparse += int(n)
			for i, id := range ids {
				if seq, ok := x.hashed(m.blocks, id); !ok || seq != blk*recBlock+uint32(i) {
					t.Fatalf("id %d of sparse block %d is not in the tables", id, blk)
				}
			}
			continue
		}
		if got != want {
			t.Fatalf("block %d: entry %+v, its ids %+v", blk, got, want)
		}
		if fb := &m.blocks[blk].frozen; m.blocks[blk].hot == nil && (fb.cols[colID].base != uint64(want.lo) || fb.cols[colID].width > denseWidth) {
			t.Fatalf("dense block %d froze at base %d, width %d; its lo is %d", blk, int(fb.cols[colID].base), fb.cols[colID].width, want.lo)
		}
	}
	if listed != len(x.dense) {
		t.Fatalf("%d dense entries, %d full dense blocks", len(x.dense), listed)
	}
	if len(x.dir) == 0 {
		if x.depth != 0 || sparse != 0 {
			t.Fatalf("no tables at depth %d, %d sparse ids", x.depth, sparse)
		}
		return
	}
	if len(x.dir) != 1<<x.depth {
		t.Fatalf("directory of %d entries at depth %d", len(x.dir), x.depth)
	}
	total := 0
	for i := 0; i < len(x.dir); {
		tb := x.dir[i]
		run := 1 << (x.depth - tb.depth)
		if i%run != 0 {
			t.Fatalf("table of depth %d starts at directory entry %d", tb.depth, i)
		}
		for k := i; k < i+run; k++ {
			if x.dir[k] != tb {
				t.Fatalf("directory entry %d leaves its table's run", k)
			}
		}
		occupied := 0
		for pos, s := range tb.slots {
			if s == 0 {
				continue
			}
			occupied++
			if h := x.hash(m.blocks.id(s - 1)); int(h>>(64-tb.depth)) != i/run {
				t.Fatalf("slot %d of the table at entry %d holds a key of another prefix", pos, i)
			}
		}
		if occupied != int(tb.n) || occupied > idTableFull {
			t.Fatalf("table at entry %d: %d occupied, n = %d, split threshold %d", i, occupied, tb.n, idTableFull)
		}
		total += occupied
		i += run
	}
	if total != sparse {
		t.Fatalf("the tables hold %d entries, the sparse blocks %d ids", total, sparse)
	}
}

// idTables lists the index's tables, each once, in directory order.
func idTables(x *idIndex) []*idTable {
	var out []*idTable
	for i := 0; i < len(x.dir); i += 1 << (x.depth - x.dir[i].depth) {
		out = append(out, x.dir[i])
	}
	return out
}

// tableEntries counts the ids the index's tables hold.
func tableEntries(x *idIndex) int {
	n := 0
	for _, tb := range idTables(x) {
		n += int(tb.n)
	}
	return n
}

// longestProbe is the furthest any key sits from its home slot.
func (m *idModel) longestProbe() int {
	longest := 0
	for _, tb := range idTables(&m.x) {
		for pos, s := range tb.slots {
			if s == 0 {
				continue
			}
			home := uint32(m.x.hash(m.blocks.id(s-1))) & idTableMask
			longest = max(longest, int((uint32(pos)-home)&idTableMask))
		}
	}
	return longest
}

// TestIDIndexModel is the differential test against map[int]uint32:
// batches of every id shape, overlapping earlier ones, a third of them
// rolled back, through several generations of table splits, and after
// every fourth batch or so, and the last, a drain that freezes every
// full block in random order, which must leave the index as it was, so
// later splits read keys from both record forms. A shape runs for some
// sixteen batches, so that blocks hold one shape alone, and most runs
// are of shapes in order, whose blocks are dense unless a shape change,
// a rollback or a far id falls inside them — the last spilling a block
// the rule held so far, some of those in a batch that is rolled back.
// The whole index is checked after every batch and every freeze.
func TestIDIndexModel(t *testing.T) {
	src := rng.New(19)
	m := newIDModel()
	next := make([]int, len(modelShapes))
	shape := 0
	for r := 0; r < 400; r++ {
		if src.Intn(16) == 0 {
			shape = src.Intn(len(modelShapes))
			if inOrder := []int{0, len(idShapes), len(idShapes) + 1, len(idShapes) + 2, len(idShapes) + 3}; src.Intn(8) > 0 {
				shape = inOrder[src.Intn(len(inOrder))]
			}
		}
		n := 1 + src.Intn(400)
		from := max(0, next[shape]-src.Intn(20)) // reach back: some ids are duplicates
		keep := src.Intn(3) > 0
		m.round(t, shapeIDs(shape, from, n, src), keep)
		if keep {
			next[shape] = max(next[shape], from+n)
		}
		m.check(t)
		if src.Intn(4) > 0 && r < 399 {
			continue
		}
		for hot := m.hotFull(); len(hot) > 0; { // a drain: every full block finishes
			i := src.Intn(len(hot))
			m.freeze(t, hot[i])
			m.check(t)
			hot = slices.Delete(hot, i, i+1)
		}
	}
	searched, scanned := 0, 0 // dense blocks whose find binary-searches, and that scan
	for _, d := range m.x.dense {
		if !d.asc {
			scanned++
		} else if d.span > 0 {
			searched++
		}
	}
	sparse := len(m.blocks) - 1 - len(m.x.dense)
	t.Logf("%d ids: %d full dense blocks (%d searched, %d scanned), %d full sparse; %d spills, %d taken back; %d tables at depth %d",
		len(m.want), len(m.x.dense), searched, scanned, sparse, m.spills, m.refused, len(idTables(&m.x)), m.x.depth)
	if m.x.depth < 3 || searched == 0 || scanned == 0 || sparse == 0 || m.spills == 0 || m.refused == 0 {
		t.Errorf("not exercised: depth %d, dense %d searched and %d scanned, sparse %d, spills %d, %d taken back",
			m.x.depth, searched, scanned, sparse, m.spills, m.refused)
	}
}

// FuzzIDIndex drives the same model from bytes: each four are one batch
// — shape, size (up to 4096, so one batch can split a table), keep or
// roll back, and where in the shape's sequence to start — and the third
// byte's second bit freezes one of the full hot blocks after it, the
// fourth byte choosing which.
func FuzzIDIndex(f *testing.F) {
	f.Add([]byte{0, 255, 3, 0, 0, 255, 2, 16, 0, 255, 3, 16})     // split, then a rolled-back split
	f.Add([]byte{1, 40, 3, 0, 2, 40, 2, 0, 3, 40, 3, 0, 4, 9, 3}) // strides, a truncated tail
	f.Add([]byte{5, 255, 2, 0, 5, 255, 3, 0, 4, 255, 3, 3})
	f.Add([]byte{0, 255, 3, 0, 6, 127, 3, 1, 7, 127, 3, 2, 8, 255, 3, 0, 0, 255, 3, 9}) // freezes, dense and sparse
	f.Add([]byte{9, 63, 3, 0, 9, 63, 3, 4})                                             // a spill in each of two blocks
	f.Add([]byte{9, 31, 1, 0, 9, 31, 0, 2, 9, 31, 1, 2})                                // a spill taken back, then kept
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 256 {
			data = data[:256] // at most 64 batches
		}
		src := rng.New(uint64(len(data)))
		m := newIDModel()
		for ; len(data) >= 4; data = data[4:] {
			shape := int(data[0]) % len(modelShapes)
			n := (int(data[1]) + 1) * 16
			m.round(t, shapeIDs(shape, int(data[3])*256, n, src), data[2]&1 == 1)
			if hot := m.hotFull(); data[2]&2 != 0 && len(hot) > 0 {
				m.freeze(t, hot[int(data[3])%len(hot)])
			}
			m.check(t)
		}
	})
}

// unmixID inverts idIndex.hash's mixer: the id that hashes to h under
// seed is unmixID(h) ^ seed. Only someone who knows the seed can do this.
func unmixID(h uint64) uint64 {
	h ^= h>>31 ^ h>>62
	h *= 0x319642b2d24d8ec3
	h ^= h>>27 ^ h>>54
	h *= 0x96de1b173f119089
	h ^= h>>30 ^ h>>60
	return h
}

// TestIDIndexProbeLength: no id shape probes further than random ids
// do, every one of them put in the tables (putAll), as any shape's ids
// are once its blocks are sparse. The length of a linear-probe chain is set by how full the table
// is, and sequential-looking populations split their tables in waves,
// so each shape is measured at both ends of the cycle: at 500 000
// entries, just after a wave (tables 48 % full, under 64 slots), and at
// 455 000, just before it (69 % on average, some tables at the 7/8
// threshold, a few hundred slots). Ids crafted against a known seed
// build one chain of any length — which is why the seed is drawn at
// random and shown to no one. The shapes run under fixed seeds so the
// bounds are exact, not likely.
func TestIDIndexProbeLength(t *testing.T) {
	scale := 1
	if testing.Short() {
		scale = 8 // an eighth of the entries in an eighth of the tables: the same fill
	}
	src := rng.New(7)
	for _, c := range []struct{ n, bound int }{{500_000, 64}, {455_000, 1024}} {
		for shape := range idShapes {
			m := newIDModel()
			m.x.seed = 0x9e3779b97f4a7c15 * uint64(shape+1)
			m.putAll(shapeIDs(shape, 0, c.n/scale, src))
			longest := m.longestProbe()
			t.Logf("%s: longest probe %d slots over %d entries in %d tables",
				idShapes[shape].name, longest, len(m.want), len(idTables(&m.x)))
			if longest >= c.bound {
				t.Errorf("%s at %d entries: longest probe %d slots, want under %d", idShapes[shape].name, len(m.want), longest, c.bound)
			}
		}
	}

	const seed, chain = 0x5eed, 1500
	crafted := make([]int, chain)
	for k := range crafted {
		h := uint64(k)<<12 | 0x5a5 // one home slot, one directory prefix
		crafted[k] = int(unmixID(h) ^ seed)
	}
	known := newIDModel()
	known.x.seed = seed
	if h := known.x.hash(crafted[chain-1]); h != uint64(chain-1)<<12|0x5a5 {
		t.Fatalf("unmixID does not invert the hash: got %#x", h)
	}
	known.putAll(crafted)
	if longest := known.longestProbe(); longest != chain-1 {
		t.Errorf("ids crafted against a known seed: longest probe %d, want the whole chain of %d", longest, chain-1)
	}
	secret := newIDModel()
	secret.putAll(crafted)
	if longest := secret.longestProbe(); longest >= 64 {
		t.Errorf("the same ids under a random seed: longest probe %d, want under 64", longest)
	}
}

// TestIDIndexWorstPut bounds the worst single insert into the tables by
// structure and logs it by the clock: up to 2²⁰ ids that are not dense,
// no put splits more than one table, so none re-homes more than
// idTableFull entries — one growing table would re-home every entry it
// holds at each doubling, under idMu. The clock's worst case over a
// million samples also catches whatever else the machine did meanwhile,
// so the worst put that split nothing is logged beside it as the noise
// floor. Then 2²⁰ ids in order, one far id ending each block, spill
// every block once, each spill — its block's earlier 1023 ids put in the
// tables by one add, in Submit under idMu — timed too: the worst is
// logged beside the median.
func TestIDIndexWorstPut(t *testing.T) {
	n := 1 << 20
	if testing.Short() {
		n = 1 << 17
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // no collector pauses in the samples
	m := newIDModel()
	var worstSplit, worstPlain time.Duration
	splits := 0
	for i := range n {
		id := i << 12 // strided: every block sparse
		seq := m.next(id)
		h := m.x.hash(id)
		var before uint8
		if len(m.x.dir) > 0 {
			before = m.x.table(h).depth
		}
		start := time.Now()
		m.x.put(m.blocks, id, seq)
		took := time.Since(start)
		switch after := m.x.table(h).depth; after - before {
		case 0:
			worstPlain = max(worstPlain, took)
		case 1:
			worstSplit = max(worstSplit, took)
			splits++
		default:
			t.Fatalf("put %d split %d tables", seq, after-before)
		}
	}
	tables := len(idTables(&m.x))
	if tables != splits+1 {
		t.Fatalf("%d tables after %d splits", tables, splits)
	}
	perEntry := float64(tables*idTableSlots*4) / float64(n)
	t.Logf("%d entries: worst put that split a table %v (%d splits), worst that did not %v; %.1f index bytes per entry",
		n, worstSplit, splits, worstPlain, perEntry)
	if perEntry > 9.2 {
		t.Errorf("%.1f index bytes per entry, want at most 4096·4/%d = 9.2", perEntry, idTableFull/2)
	}

	m = newIDModel()
	runtime.GC() // the first index's blocks and tables go
	var spills []time.Duration
	for i := range n {
		id := 3*100_000_000 + i
		if i%recBlock == recBlock-1 {
			id = -1 - i
		}
		seq := m.next(id)
		start := time.Now()
		m.x.add(m.blocks, id, seq)
		if took := time.Since(start); i%recBlock == recBlock-1 {
			spills = append(spills, took)
		}
	}
	slices.Sort(spills)
	t.Logf("%d blocks spilled: worst spill %v, median %v; %d tables",
		len(spills), spills[len(spills)-1], spills[len(spills)/2], len(idTables(&m.x)))
	if len(m.x.dense) != 0 || !m.x.tail.sparse || tableEntries(&m.x) != n {
		t.Fatalf("%d dense blocks, tail sparse %v, %d of %d ids in the tables after every block spilled",
			len(m.x.dense), m.x.tail.sparse, tableEntries(&m.x), n)
	}
}

// TestSubmitRollbackLeavesNoTrace: a 64-job batch whose last job is a
// duplicate is undone completely, wherever it falls — across a record
// block boundary, across a table split of ids that are not dense, across
// both at once, and after a far id has spilled the dense block it joined,
// inside it or before the batch goes on into the next. Jobs, Marshal,
// every earlier id, the index's dense blocks and table entries, the
// tenant table and the sequence numbers the next batch receives are
// those of a fleet the batch was never sent to.
func TestSubmitRollbackLeavesNoTrace(t *testing.T) {
	const seed, batch, far = 0x1d5eed, 64, -1 << 40
	inOrder := func(k int) int { return k }
	strided := func(k int) int { return k << 12 } // no block is dense
	// Where strided ids split a table close to a block boundary under
	// this seed: scout with a bare index fed exactly what the fleet's
	// will be.
	both := -1
	scout := newIDModel()
	scout.x.seed = seed
	for seq := 0; seq < 400_000 && both < 0; seq++ {
		tables := len(idTables(&scout.x))
		scout.round(t, []int{strided(seq)}, true)
		if off := seq % recBlock; len(idTables(&scout.x)) > max(tables, 1) && (off < 20 || off >= recBlock-20) {
			both = (seq+20)/recBlock*recBlock - batch/2 // the boundary, mid-batch
		}
	}
	if both < 0 {
		t.Fatal("no table split within 20 jobs of a block boundary in 400 000 strided ids")
	}
	cases := []struct {
		name              string
		prior             int
		id                func(k int) int
		spill             int // the batch's job that takes a far id, or -1
		opensBlock, split bool
	}{
		{"record block boundary", recBlock - 4, inOrder, -1, true, false},
		{"first table split", idTableFull - 24, strided, -1, false, true},
		{"block boundary and table split", both, strided, -1, true, true},
		{"spill, then a duplicate", recBlock / 2, inOrder, 10, false, false},
		{"spill, then a duplicate across a block boundary", recBlock - 32, inOrder, 10, true, false},
	}
	set, cl, origins := mkWideSet(t, 48, 4)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			jobs := func(from, to int) []Job {
				js := residentJobs(to, origins)[from:]
				for i := range js {
					js[i].ID = c.id(from + i)
				}
				return js
			}
			fleet := func() *Fleet {
				f, err := NewFleet(set, cl, FIFO{}, 48)
				if err != nil {
					t.Fatal(err)
				}
				f.ids.seed = seed
				if err := f.Submit(jobs(0, c.prior)...); err != nil {
					t.Fatal(err)
				}
				return f
			}
			sent, never := fleet(), fleet()
			before, err := sent.Marshal()
			if err != nil {
				t.Fatal(err)
			}
			blocksBefore, tablesBefore := len(sent.blocks), len(idTables(&sent.ids))

			bad := jobs(c.prior, c.prior+batch)
			for i := range bad {
				bad[i].Tenant = "only-the-failed-batch"
			}
			if c.spill >= 0 {
				bad[c.spill].ID = far
			}
			bad[batch-1].ID = c.id(c.prior / 2)
			if err := sent.Submit(bad...); err == nil {
				t.Fatal("a batch ending in a duplicate id was accepted")
			}
			if opened := c.prior/recBlock != (c.prior+batch-1)/recBlock; opened != c.opensBlock {
				t.Fatalf("mispositioned: the batch opens a record block = %v", opened)
			}
			if split := len(idTables(&sent.ids)) > max(tablesBefore, 1); split != c.split {
				t.Fatalf("mispositioned: the batch splits a table = %v", split)
			}
			if spilled := tablesBefore == 0 && len(idTables(&sent.ids)) > 0; spilled != (c.spill >= 0) {
				t.Fatalf("mispositioned: the batch spills a dense block = %v", spilled)
			}
			if len(sent.blocks) != blocksBefore {
				t.Errorf("%d record blocks after the rollback, %d before", len(sent.blocks), blocksBefore)
			}
			if sent.Jobs() != c.prior {
				t.Errorf("Jobs() = %d after the rollback, want %d", sent.Jobs(), c.prior)
			}
			if after, _ := sent.Marshal(); !bytes.Equal(after, before) {
				t.Error("Marshal differs after the rollback")
			}
			for k := 0; k < c.prior+batch; k++ {
				id := c.id(k)
				if info, ok := sent.Lookup(id); ok != (k < c.prior) || ok && info.ID != id || ok != sent.Has(id) {
					t.Fatalf("Lookup(%d) = %+v, %v after the rollback", id, info.Job, ok)
				}
			}
			if sent.Has(far) {
				t.Fatalf("the far id %d is found after the rollback", far)
			}
			if got, want := tableEntries(&sent.ids), tableEntries(&never.ids); got != want ||
				sent.ids.tail != never.ids.tail || !slices.Equal(sent.ids.dense, never.ids.dense) {
				t.Errorf("index after the rollback: %d table entries, tail %+v, dense %v; want %d, %+v, %v",
					got, sent.ids.tail, sent.ids.dense, want, never.ids.tail, never.ids.dense)
			}
			if !reflect.DeepEqual(sent.tenants, never.tenants) || len(sent.tenantIdx) != len(never.tenantIdx) {
				t.Errorf("tenant table %q after the rollback, want %q", sent.tenants, never.tenants)
			}

			good := jobs(c.prior, c.prior+batch)
			for i := range good {
				good[i].Tenant = "next"
			}
			for _, f := range []*Fleet{sent, never} {
				if err := f.Submit(good...); err != nil {
					t.Fatal(err)
				}
			}
			for _, j := range good {
				a, _ := sent.ids.get(sent.blocks, j.ID)
				b, ok := never.ids.get(never.blocks, j.ID)
				if !ok || a != b || sent.blocks.rec(a).tenantI != never.blocks.rec(b).tenantI {
					t.Fatalf("job %d: sequence %d, want %d (%v)", j.ID, a, b, ok)
				}
			}
			if tableEntries(&sent.ids) != tableEntries(&never.ids) || sent.ids.tail != never.ids.tail {
				t.Errorf("index after the next batch: %d table entries, tail %+v; want %d, %+v",
					tableEntries(&sent.ids), sent.ids.tail, tableEntries(&never.ids), never.ids.tail)
			}
			got, _ := sent.Marshal()
			want, _ := never.Marshal()
			if !bytes.Equal(got, want) {
				t.Error("Marshal differs from the fleet the failed batch was never sent to")
			}
		})
	}
}

// TestIndexSeedInvisible: the index seed moves slots, never output. Two
// fleets that differ only in it, fed the same explicit ids of every
// shape, produce the same image bytes at every hour and the same
// placement log.
func TestIndexSeedInvisible(t *testing.T) {
	const horizon = 72
	set, cl, origins := mkWideSet(t, horizon, 4)
	src := rng.New(3)
	jobs := residentJobs(6*700, origins)
	for shape := range idShapes {
		for k, id := range shapeIDs(shape, 1, 700, src) {
			j := &jobs[shape*700+k]
			j.ID, j.Arrival = id, k%24
		}
	}
	run := func(seed uint64) (images [][]byte, log []Placed) {
		f, err := NewFleet(set, cl, GreenestFirst{}, horizon)
		if err != nil {
			t.Fatal(err)
		}
		f.ids.seed = seed
		f.OnPlace = func(p Placed) { log = append(log, p) }
		if err := f.Submit(jobs...); err != nil {
			t.Fatal(err)
		}
		for !f.Done() {
			if err := f.Step(); err != nil {
				t.Fatal(err)
			}
			img, err := f.Marshal()
			if err != nil {
				t.Fatal(err)
			}
			images = append(images, img)
		}
		return images, log
	}
	imagesA, logA := run(1)
	imagesB, logB := run(0xfeedfacecafebeef)
	if len(logA) == 0 || !reflect.DeepEqual(logA, logB) {
		t.Errorf("placement logs differ between index seeds (%d and %d records)", len(logA), len(logB))
	}
	for h := range imagesA {
		if !bytes.Equal(imagesA[h], imagesB[h]) {
			t.Fatalf("images differ between index seeds after hour %d", h)
		}
	}
}
