package sched

import (
	"sync"
	"testing"
)

// idColumnShapes are the id populations a hot block keeps in each of its
// two forms. Each returns the i-th id.
var idColumnShapes = []struct {
	name string
	id   func(i int) int
}{
	// Span 0: every id less its position is the block's lo.
	{"ascending and exact", func(i int) int { return 5_000_000 + i }},
	// Two clients' 64-job batches acked in swapped order: each block's
	// lo falls 128 below its first record's at record 64.
	{"reordered within a dense span", func(i int) int { return 7_000_000 + (i ^ 64) }},
	// Ids in order but one far id half way through every block: each
	// block spills there, its first half read back from low bytes.
	{"a spill in mid-block", func(i int) int {
		if i%recBlock == recBlock/2 {
			return -1<<40 - i
		}
		return 9_000_000 + i
	}},
	// A bijection of the position: no block is dense.
	{"scattered", func(i int) int { return int(uint64(i+1) * 0x9e3779b97f4a7c15) }},
}

// TestIDColumnDifferential holds every way the store keeps an id to the
// ids submitted, for every shape, at every stage of a block's life: hot
// as Submit writes it with readers walking beside it, after a batch that
// spills the tail and fails on a duplicate is rolled back, restored from
// an image, and frozen once every job is done. At each stage every job's
// id reads back through recBlocks.id, Lookup, Has and the Snapshot walk,
// ids next to them that were never submitted are absent, and each hot
// block keeps its ids in the form the index's verdict on it says: a side
// column exactly when it is sparse.
func TestIDColumnDifferential(t *testing.T) {
	const n, batch = 3*recBlock + 300, 64
	for _, shape := range idColumnShapes {
		t.Run(shape.name, func(t *testing.T) {
			set, cl, origins := mkWideSet(t, 48, 4)
			for i := range cl {
				cl[i].Slots = n
			}
			jobs := residentJobs(n+batch, origins)
			ids := make([]int, len(jobs))
			for i := range jobs {
				jobs[i].ID, jobs[i].Slack = shape.id(i), 4
				ids[i] = jobs[i].ID
			}
			f, err := NewFleet(set, cl, FIFO{}, 48)
			if err != nil {
				t.Fatal(err)
			}

			// Hot, with a reader beside every batch: each Snapshot walk
			// must read back a prefix of the ids.
			stop := make(chan struct{})
			var reader sync.WaitGroup
			reader.Add(1)
			go func() {
				defer reader.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					for seq, o := range f.Snapshot().Outcomes {
						if o.ID != ids[seq] {
							t.Errorf("a Snapshot beside Submit read job %d as id %d, want %d", seq, o.ID, ids[seq])
							return
						}
					}
				}
			}()
			for i := 0; i < n; i += batch {
				if err := f.Submit(jobs[i:min(i+batch, n)]...); err != nil {
					t.Fatal(err)
				}
			}
			close(stop)
			reader.Wait()
			checkIDColumn(t, "hot", f, ids[:n])

			// A batch into the tail that spills it at its third job and
			// fails on its last, a duplicate: the spill is taken back.
			bad := append([]Job(nil), jobs[n:n+batch]...)
			bad[2].ID, bad[batch-1].ID = -1<<50, ids[n/2]
			if err := f.Submit(bad...); err == nil {
				t.Fatal("a batch ending in a duplicate id was accepted")
			}
			checkIDColumn(t, "after a rolled-back spill", f, ids[:n])
			if err := f.Submit(jobs[n : n+batch]...); err != nil {
				t.Fatal(err)
			}
			checkIDColumn(t, "after the batch that followed it", f, ids)

			restored := func(stage string) {
				img, err := f.Marshal()
				if err != nil {
					t.Fatal(err)
				}
				g, err := NewFleet(set, cl, FIFO{}, 48)
				if err != nil {
					t.Fatal(err)
				}
				if err := g.Unmarshal(img); err != nil {
					t.Fatal(err)
				}
				checkIDColumn(t, stage, g, ids)
			}
			restored("hot, restored")
			driveFleet(t, f)
			if got, want := frozenBlocks(f), len(ids)/recBlock; got != want {
				t.Fatalf("%d blocks frozen, want %d", got, want)
			}
			checkIDColumn(t, "frozen", f, ids)
			restored("frozen, restored")
		})
	}
}

// checkIDColumn fails unless f holds exactly the jobs ids, in sequence
// order, and every read of an id agrees with them.
func checkIDColumn(t *testing.T, stage string, f *Fleet, ids []int) {
	t.Helper()
	if f.Jobs() != len(ids) {
		t.Fatalf("%s: %d jobs, want %d", stage, f.Jobs(), len(ids))
	}
	held := make(map[int]bool, len(ids))
	for _, id := range ids {
		held[id] = true
	}
	for seq, id := range ids {
		if got := f.blocks.id(uint32(seq)); got != id {
			t.Fatalf("%s: recBlocks.id(%d) = %d, want %d", stage, seq, got, id)
		}
		if info, ok := f.Lookup(id); !ok || info.ID != id {
			t.Fatalf("%s: Lookup(%d) = id %d, %v", stage, id, info.ID, ok)
		}
		if !f.Has(id) {
			t.Fatalf("%s: Has(%d) = false", stage, id)
		}
		for _, near := range []int{id - 1, id + 1, id + recBlock} {
			if !held[near] && f.Has(near) {
				t.Fatalf("%s: Has(%d) = true, never submitted", stage, near)
			}
		}
	}
	for seq, o := range f.Snapshot().Outcomes {
		if o.ID != ids[seq] {
			t.Fatalf("%s: Snapshot reads job %d as id %d, want %d", stage, seq, o.ID, ids[seq])
		}
	}
	for blk := range f.blocks {
		e := &f.blocks[blk]
		dense := f.ids.tail.blk == uint32(blk) && !f.ids.tail.sparse
		for _, d := range f.ids.dense {
			dense = dense || d.blk == uint32(blk)
		}
		if sparse := e.ids != nil; e.hot != nil && sparse == dense || e.hot == nil && sparse {
			t.Fatalf("%s: block %d (hot %v) has a side column %v, dense %v", stage, blk, e.hot != nil, sparse, dense)
		}
	}
}
