package sched

import (
	"bytes"
	"math"
	"reflect"
	"runtime/debug"
	"testing"
	"time"

	"carbonshift/internal/rng"
)

// idShapes are the id populations the index is held to: what the
// partitions' auto-assignment and real clients produce, and the regular
// patterns a weak hash folds into one chain. Each returns the i-th id.
var idShapes = []struct {
	name string
	id   func(i int, src *rng.Source) int
}{
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

// shapeIDs returns ids from..from+n-1 of a shape.
func shapeIDs(shape, from, n int, src *rng.Source) []int {
	ids := make([]int, n)
	for k := range ids {
		ids[k] = idShapes[shape].id(from+k, src)
	}
	return ids
}

// idModel runs an idIndex over real record blocks beside the map it
// replaced.
type idModel struct {
	x      idIndex
	blocks recBlocks
	want   map[int]uint32
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

// round submits ids the way Submit does — get, write the record, put —
// and then either keeps the batch or rolls it back as a failed Submit
// would, deleting in a random order. Present and absent ids are probed
// before it returns.
func (m *idModel) round(t testing.TB, ids []int, keep bool, src *rng.Source) {
	t.Helper()
	nblocks := len(m.blocks)
	var added []int
	for _, id := range ids {
		seq, ok := m.x.get(m.blocks, id)
		if want, present := m.want[id]; ok != present || seq != want {
			t.Fatalf("get(%d) = %d, %v; the map holds %d, %v", id, seq, ok, want, present)
		}
		if ok {
			continue
		}
		seq = uint32(len(m.want))
		if seq%recBlock == 0 {
			m.blocks = append(m.blocks, new([recBlock]jobRec))
		}
		m.blocks.at(seq).id = id
		m.x.put(m.blocks, id, seq)
		m.want[id] = seq
		added = append(added, id)
	}
	if !keep {
		for i := len(added) - 1; i > 0; i-- { // Fisher–Yates
			j := src.Intn(i + 1)
			added[i], added[j] = added[j], added[i]
		}
		for _, id := range added {
			m.x.del(m.blocks, id)
			delete(m.want, id)
		}
		m.blocks = m.blocks[:nblocks]
	}
	m.probe(t, ids)
}

// check verifies the whole index: every id resolves, and the directory
// and tables are well formed — each table of depth d fills one aligned
// run of 2^(depth-d) directory entries, counts its occupied slots
// exactly, and is never fuller than the split threshold.
func (m *idModel) check(t testing.TB) {
	t.Helper()
	for id, want := range m.want {
		if seq, ok := m.x.get(m.blocks, id); !ok || seq != want {
			t.Fatalf("get(%d) = %d, %v; want %d", id, seq, ok, want)
		}
	}
	x := &m.x
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
			if h := x.hash(m.blocks.at(s - 1).id); int(h>>(64-tb.depth)) != i/run {
				t.Fatalf("slot %d of the table at entry %d holds a key of another prefix", pos, i)
			}
		}
		if occupied != int(tb.n) || occupied > idTableFull {
			t.Fatalf("table at entry %d: %d occupied, n = %d, split threshold %d", i, occupied, tb.n, idTableFull)
		}
		total += occupied
		i += run
	}
	if total != len(m.want) {
		t.Fatalf("index holds %d entries, want %d", total, len(m.want))
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

// longestProbe is the furthest any key sits from its home slot.
func (m *idModel) longestProbe() int {
	longest := 0
	for _, tb := range idTables(&m.x) {
		for pos, s := range tb.slots {
			if s == 0 {
				continue
			}
			home := uint32(m.x.hash(m.blocks.at(s-1).id)) & idTableMask
			longest = max(longest, int((uint32(pos)-home)&idTableMask))
		}
	}
	return longest
}

// TestIDIndexModel is the differential test against map[int]uint32:
// batches of every id shape, overlapping earlier ones, a third of them
// rolled back, through several generations of table splits.
func TestIDIndexModel(t *testing.T) {
	src := rng.New(19)
	m := newIDModel()
	next := make([]int, len(idShapes))
	for r := 0; r < 400; r++ {
		shape := src.Intn(len(idShapes))
		n := 1 + src.Intn(400)
		from := max(0, next[shape]-src.Intn(20)) // reach back: some ids are duplicates
		keep := src.Intn(3) > 0
		m.round(t, shapeIDs(shape, from, n, src), keep, src)
		if keep {
			next[shape] = max(next[shape], from+n)
		}
	}
	m.check(t)
	if m.x.depth < 3 {
		t.Errorf("directory depth %d after %d ids: the splits were not exercised", m.x.depth, len(m.want))
	}
}

// FuzzIDIndex drives the same model from bytes: each four are one batch
// — shape, size (up to 4096, so one batch can split a table), keep or
// roll back, and where in the shape's sequence to start.
func FuzzIDIndex(f *testing.F) {
	f.Add([]byte{0, 255, 1, 0, 0, 255, 0, 16, 0, 255, 1, 16})     // split, then a rolled-back split
	f.Add([]byte{1, 40, 1, 0, 2, 40, 0, 0, 3, 40, 1, 0, 4, 9, 1}) // strides, a truncated tail
	f.Add([]byte{5, 255, 0, 0, 5, 255, 1, 0, 4, 255, 1, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 256 {
			data = data[:256] // at most 64 batches
		}
		src := rng.New(uint64(len(data)))
		m := newIDModel()
		for ; len(data) >= 4; data = data[4:] {
			shape := int(data[0]) % len(idShapes)
			n := (int(data[1]) + 1) * 16
			m.round(t, shapeIDs(shape, int(data[3])*256, n, src), data[2]&1 == 1, src)
		}
		m.check(t)
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
// do. The length of a linear-probe chain is set by how full the table
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
			m.round(t, shapeIDs(shape, 0, c.n/scale, src), true, src)
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
	known.round(t, crafted, true, src)
	if longest := known.longestProbe(); longest != chain-1 {
		t.Errorf("ids crafted against a known seed: longest probe %d, want the whole chain of %d", longest, chain-1)
	}
	secret := newIDModel()
	secret.round(t, crafted, true, src)
	if longest := secret.longestProbe(); longest >= 64 {
		t.Errorf("the same ids under a random seed: longest probe %d, want under 64", longest)
	}
}

// TestIDIndexWorstPut bounds the worst single insert by structure and
// logs it by the clock: up to 2²⁰ entries no put splits more than one
// table, so none re-homes more than idTableFull entries — one growing
// table would re-home every entry it holds at each doubling, under idMu.
// The clock's worst case over a million samples also catches whatever
// else the machine did meanwhile, so the worst put that split nothing is
// logged beside it as the noise floor.
func TestIDIndexWorstPut(t *testing.T) {
	n := 1 << 20
	if testing.Short() {
		n = 1 << 17
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // no collector pauses in the samples
	m := newIDModel()
	var worstSplit, worstPlain time.Duration
	splits := 0
	for seq := uint32(0); seq < uint32(n); seq++ {
		id := 3*100_000_000 + int(seq)
		if seq%recBlock == 0 {
			m.blocks = append(m.blocks, new([recBlock]jobRec))
		}
		m.blocks.at(seq).id = id
		h := m.x.hash(id)
		before := m.x.table(h).depth
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
}

// TestSubmitRollbackLeavesNoTrace: a 64-job batch whose last job is a
// duplicate is undone completely, wherever it falls — across a record
// block boundary, across a table split, across both at once. Jobs,
// Marshal, every earlier id, the tenant table and the sequence numbers
// the next batch receives are those of a fleet the batch was never sent
// to.
func TestSubmitRollbackLeavesNoTrace(t *testing.T) {
	const seed, batch = 0x1d5eed, 64
	// Where sequential ids split a table close to a block boundary under
	// this seed: scout with a bare index fed exactly what the fleet's
	// will be.
	both := -1
	scout := newIDModel()
	scout.x.seed = seed
	for seq := 0; seq < 400_000 && both < 0; seq++ {
		depth := scout.x.table(scout.x.hash(seq)).depth
		scout.round(t, []int{seq}, true, nil)
		if off := seq % recBlock; scout.x.table(scout.x.hash(seq)).depth > depth && (off < 20 || off >= recBlock-20) {
			both = (seq+20)/recBlock*recBlock - batch/2 // the boundary, mid-batch
		}
	}
	if both < 0 {
		t.Fatal("no table split within 20 jobs of a block boundary in 400 000 sequential ids")
	}
	cases := []struct {
		name              string
		prior             int
		opensBlock, split bool
	}{
		{"record block boundary", recBlock - 4, true, false},
		{"first table split", idTableFull - 24, false, true},
		{"block boundary and table split", both, true, true},
	}
	set, cl, origins := mkWideSet(t, 48, 4)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			fleet := func() *ShardedFleet {
				f, err := NewShardedFleet(set, cl, FIFO{}, 48, 0)
				if err != nil {
					t.Fatal(err)
				}
				f.ids.seed = seed
				if err := f.Submit(residentJobs(c.prior, origins)...); err != nil {
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

			bad := residentJobs(c.prior+batch, origins)[c.prior:]
			for i := range bad {
				bad[i].Tenant = "only-the-failed-batch"
			}
			bad[batch-1].ID = c.prior / 2
			if err := sent.Submit(bad...); err == nil {
				t.Fatal("a batch ending in a duplicate id was accepted")
			}
			if opened := c.prior/recBlock != (c.prior+batch-1)/recBlock; opened != c.opensBlock {
				t.Fatalf("mispositioned: the batch opens a record block = %v", opened)
			}
			if split := len(idTables(&sent.ids)) > tablesBefore; split != c.split {
				t.Fatalf("mispositioned: the batch splits a table = %v", split)
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
			for id := 0; id < c.prior+batch; id++ {
				if info, ok := sent.Lookup(id); ok != (id < c.prior) || ok && info.ID != id || ok != sent.Has(id) {
					t.Fatalf("Lookup(%d) = %+v, %v after the rollback", id, info.Job, ok)
				}
			}
			if !reflect.DeepEqual(sent.tenants, never.tenants) || len(sent.tenantIdx) != len(never.tenantIdx) {
				t.Errorf("tenant table %q after the rollback, want %q", sent.tenants, never.tenants)
			}

			good := residentJobs(c.prior+batch, origins)[c.prior:]
			for i := range good {
				good[i].Tenant = "next"
			}
			for _, f := range []*ShardedFleet{sent, never} {
				if err := f.Submit(good...); err != nil {
					t.Fatal(err)
				}
			}
			for _, j := range good {
				a, _ := sent.ids.get(sent.blocks, j.ID)
				b, ok := never.ids.get(never.blocks, j.ID)
				if !ok || a != b || sent.blocks.at(a).tenantI != never.blocks.at(b).tenantI {
					t.Fatalf("job %d: sequence %d, want %d (%v)", j.ID, a, b, ok)
				}
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
	type placement struct {
		hour, id int
		region   string
	}
	run := func(seed uint64) (images [][]byte, log []placement) {
		f, err := NewShardedFleet(set, cl, GreenestFirst{}, horizon, 0)
		if err != nil {
			t.Fatal(err)
		}
		f.ids.seed = seed
		f.OnPlace = func(hour, id int, region string) { log = append(log, placement{hour, id, region}) }
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
