package index_test

// Tests of the MVCC layer: snapshot isolation (a pinned reader keeps a
// frozen version while writers advance the live index), path copying and
// reclamation accounting, recycling held back by a long-lived pin, a
// map-model check of the writer's counters, and race-run concurrent
// mixed loads. Everything here
// drives the public API; the internal epoch protocol is observed through
// MVCCInfo counters.

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"os"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/bitmask"
	"repro/internal/btree"
	"repro/internal/index"
	"repro/internal/kary"
	"repro/internal/obs"
	"repro/internal/segtree"
)

func newVersionedSegTree() *index.Versioned[uint32, int] {
	return index.NewVersioned[uint32, int](func() index.Index[uint32, int] {
		return segtree.New[uint32, int](segtree.Config{
			LeafCap: 6, BranchCap: 6, Layout: kary.DepthFirst, Evaluator: bitmask.Popcount,
		})
	})
}

func newShardedBTree(shards int) *index.Sharded[uint32, int] {
	return index.NewSharded[uint32, int](shards, func() index.Index[uint32, int] {
		return btree.New[uint32, int](btree.Config{LeafCap: 6, BranchCap: 6})
	})
}

func TestNewVersionedRejectsNilConstructor(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("nil constructor accepted")
		}
	}()
	index.NewVersioned[uint32, int](nil)
}

// TestSnapshotIsolation pins the tentpole property: a Snapshot observes
// exactly the version current at acquisition — overwrites, deletes and
// inserts published afterwards are invisible through it, across every
// read operation — while the live index moves on.
func TestSnapshotIsolation(t *testing.T) {
	for _, tc := range []struct {
		name string
		ix   interface {
			index.Index[uint32, int]
			Snapshot() *index.Snapshot[uint32, int]
		}
	}{
		{"versioned", newVersionedSegTree()},
		{"sharded", newShardedBTree(5)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ix := tc.ix
			for i := uint32(0); i < 200; i++ {
				ix.Put(i, int(i))
			}
			snap := ix.Snapshot()
			defer snap.Release()
			seq := snap.Seq()

			// Advance the live index past the pinned state.
			ix.Put(10, -1)     // overwrite
			ix.Delete(20)      // delete
			ix.Put(1000, 1000) // insert beyond the pinned range
			ix.Put(10, -2)     // overwrite again

			if v, ok := snap.Get(10); !ok || v != 10 {
				t.Errorf("snapshot Get(10) = (%d,%v), want frozen (10,true)", v, ok)
			}
			if v, ok := ix.Get(10); !ok || v != -2 {
				t.Errorf("live Get(10) = (%d,%v), want (-2,true)", v, ok)
			}
			if !snap.Contains(20) {
				t.Error("snapshot lost key 20 to a later delete")
			}
			if ix.Contains(20) {
				t.Error("live index still has deleted key 20")
			}
			if _, ok := snap.Get(1000); ok {
				t.Error("snapshot sees key 1000 inserted after the pin")
			}
			if n := snap.Len(); n != 200 {
				t.Errorf("snapshot Len = %d, want frozen 200", n)
			}
			if n := ix.Len(); n != 200 {
				// 200 - 1 delete + 1 insert.
				t.Errorf("live Len = %d, want 200", n)
			}
			if got := snap.Seq(); got != seq {
				t.Errorf("snapshot Seq moved %d -> %d", seq, got)
			}

			// Batch, ordered and statistics reads see the same frozen state.
			vals, found := snap.GetBatch([]uint32{10, 20, 1000, 199})
			if !found[0] || vals[0] != 10 || !found[1] || vals[1] != 20 || found[2] || !found[3] {
				t.Errorf("snapshot GetBatch = %v %v, want frozen values", vals, found)
			}
			if k, _, ok := snap.Min(); !ok || k != 0 {
				t.Errorf("snapshot Min = %d, want 0", k)
			}
			if k, v, ok := snap.Max(); !ok || k != 199 || v != 199 {
				t.Errorf("snapshot Max = (%d,%d), want (199,199)", k, v)
			}
			count := 0
			prev := -1
			snap.Ascend(func(k uint32, v int) bool {
				if int(k) != v || int(k) <= prev {
					t.Fatalf("snapshot Ascend out of order or wrong value: (%d,%d) after %d", k, v, prev)
				}
				prev = int(k)
				count++
				return true
			})
			if count != 200 {
				t.Errorf("snapshot Ascend visited %d, want 200", count)
			}
			got := []uint32{}
			snap.Scan(18, 22, func(k uint32, v int) bool {
				got = append(got, k)
				return true
			})
			if want := []uint32{18, 19, 20, 21, 22}; fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("snapshot Scan[18,22] = %v, want %v (20 must survive the delete)", got, want)
			}
			if st := snap.IndexStats(); st.Keys != 200 {
				t.Errorf("snapshot IndexStats.Keys = %d, want 200", st.Keys)
			}
			if rep := snap.Shape(); rep.Keys != 200 {
				t.Errorf("snapshot Shape.Keys = %d, want 200", rep.Keys)
			}
			if v, ok, _ := snap.GetTraced(10, nil); !ok || v != 10 {
				t.Errorf("snapshot GetTraced(10,nil) = (%d,%v), want (10,true)", v, ok)
			}

			// Release is idempotent, and afterwards writers reclaim freely.
			snap.Release()
			snap.Release()
		})
	}
}

// TestVersionedPathCopying verifies the steady-state write path on a
// 100k-key shard: with no reader, every Put copies exactly one node per
// tree level (the descent owns each node on its path before it enters
// it; nodes a split creates are new, not copies), every write releases
// the nodes its predecessor retired, so Reclaimed is Published − 1, and
// nothing is ever cloned or held back.
func TestVersionedPathCopying(t *testing.T) {
	ix := index.NewVersioned[uint32, int](func() index.Index[uint32, int] {
		return segtree.New[uint32, int](segtree.DefaultConfig[uint32]())
	})
	rng := rand.New(rand.NewSource(5))
	const load, writes = 100_000, 1000
	for _, i := range rng.Perm(load) {
		ix.Put(uint32(i)*2, i)
	}
	levels := ix.Shape().Levels
	if levels < 3 {
		t.Fatalf("a %d-key shard has %d levels, want at least 3", load, levels)
	}
	for i := 0; i < writes; i++ {
		before := ix.MVCCInfo().CopiedNodes
		ix.Put(uint32(rng.Intn(2*load)), i) // overwrites and inserts
		if got := ix.MVCCInfo().CopiedNodes - before; got != uint64(levels) {
			t.Fatalf("write %d copied %d nodes, want one per level: %d", i, got, levels)
		}
	}
	if got := ix.Shape().Levels; got != levels {
		t.Fatalf("height moved %d -> %d: the per-write copy count assumed it fixed", levels, got)
	}
	mv := ix.MVCCInfo()
	if got, want := ix.Version(), uint64(load+writes+1); got != want {
		t.Errorf("Version = %d, want %d (seq 1 + one per write)", got, want)
	}
	if mv.Published != load+writes {
		t.Errorf("Published = %d, want %d", mv.Published, load+writes)
	}
	if want := mv.Published - 1; mv.Reclaimed != want {
		t.Errorf("Reclaimed = %d, want %d: each write releases what the one before it retired", mv.Reclaimed, want)
	}
	if mv.Cloned != 0 || mv.RetiredVersions != 0 || mv.ActiveSnapshots != 0 {
		t.Errorf("Cloned = %d, RetiredVersions = %d, ActiveSnapshots = %d, want 0 each with no reader held",
			mv.Cloned, mv.RetiredVersions, mv.ActiveSnapshots)
	}
	// The publish timer samples one write per stride and records it for
	// the whole stride, so the weighted count is within one stride.
	if c := mv.PublishLatency.Count; c > mv.Published || mv.Published-c >= index.PublishStride {
		t.Errorf("publish latency observations = %d, want within %d below %d", c, index.PublishStride, mv.Published)
	}
	// Delete misses copy and publish nothing.
	if ix.Delete(1) {
		t.Fatal("Delete(1) hit an odd key")
	}
	if got := ix.MVCCInfo(); got.Published != mv.Published || got.CopiedNodes != mv.CopiedNodes {
		t.Errorf("after a delete miss: Published %d, CopiedNodes %d, want unchanged %d, %d",
			got.Published, got.CopiedNodes, mv.Published, mv.CopiedNodes)
	}
}

// TestVersionedHeldSnapshotDefersRecycling: a held snapshot keeps the
// nodes later writes replace from reuse — they count as retired versions
// waiting for a reader, and Reclaimed stops at the snapshot's sequence —
// without any clone; after Release the next write releases them all.
func TestVersionedHeldSnapshotDefersRecycling(t *testing.T) {
	ix := newVersionedSegTree()
	for i := uint32(0); i < 100; i++ {
		ix.Put(i, int(i))
	}
	snap := ix.Snapshot()
	for i := 0; i < 50; i++ {
		ix.Put(uint32(i), -i)
		ix.Put(uint32(200+i), i)
	}
	mv := ix.MVCCInfo()
	if mv.Cloned != 0 || mv.ActiveSnapshots != 1 {
		t.Errorf("held snapshot: Cloned = %d, ActiveSnapshots = %d, want 0 and 1", mv.Cloned, mv.ActiveSnapshots)
	}
	if mv.RetiredVersions != 100 {
		t.Errorf("RetiredVersions = %d, want the 100 versions published since the snapshot", mv.RetiredVersions)
	}
	if want := snap.Seq() - 1; mv.Reclaimed != want {
		t.Errorf("Reclaimed = %d, want %d: nothing the snapshot reaches may be released", mv.Reclaimed, want)
	}
	if n := snap.Len(); n != 100 {
		t.Errorf("held snapshot Len = %d, want 100", n)
	}
	for i := uint32(0); i < 100; i++ {
		if v, ok := snap.Get(i); !ok || v != int(i) {
			t.Fatalf("held snapshot Get(%d) = (%d,%v), want (%d,true)", i, v, ok, i)
		}
	}
	snap.Release()
	if got := ix.MVCCInfo().RetiredVersions; got != 0 {
		t.Errorf("RetiredVersions after release = %d, want 0", got)
	}
	ix.Put(1000, 0)
	mv = ix.MVCCInfo()
	if want := mv.Published - 1; mv.Reclaimed != want || mv.Cloned != 0 {
		t.Errorf("after release and a write: Reclaimed = %d, Cloned = %d, want %d and 0", mv.Reclaimed, mv.Cloned, want)
	}
}

// TestVersionedRecyclingSeesProbedSlot: a Snapshot whose reader found its
// first slots busy and probed on to a later one still holds back the
// nodes later writes retire. Every slot takes its turn as the only free
// one, so all but at most one pin land past the reader's hint; 256 slots
// put four slots behind each claimed bit.
func TestVersionedRecyclingSeesProbedSlot(t *testing.T) {
	for _, slots := range []int{64, 256} {
		for free := 0; free < slots; free++ {
			ix := index.NewVersionedSlots[uint32, int](slots, func() index.Index[uint32, int] {
				return btree.New[uint32, int](btree.Config{LeafCap: 6, BranchCap: 6})
			})
			for i := uint32(0); i < 10; i++ {
				ix.Put(i, int(i))
			}
			release := index.OccupyEpochSlots(ix, free)
			snap := ix.Snapshot()
			release()
			ix.Put(3, -1) // retires nodes the snapshot reaches
			ix.Put(4, -1) // must not reuse them
			mv := ix.MVCCInfo()
			if mv.RetiredVersions != 2 || mv.Reclaimed != 10 {
				t.Fatalf("%d slots, reader in slot %d: RetiredVersions = %d, Reclaimed = %d, want 2 and 10",
					slots, free, mv.RetiredVersions, mv.Reclaimed)
			}
			if want := slots / 64; mv.ClaimedSlots != want {
				t.Fatalf("%d slots: ClaimedSlots = %d, want the %d slots of one bit", slots, mv.ClaimedSlots, want)
			}
			for i := uint32(0); i < 10; i++ {
				if v, ok := snap.Get(i); !ok || v != int(i) {
					t.Fatalf("%d slots, reader in slot %d: held snapshot Get(%d) = (%d,%v)", slots, free, i, v, ok)
				}
			}
			snap.Release()
		}
	}
}

// TestShardedLoadClaimsNoSlots: loading a sharded index with no reader
// leaves every shard's drain with no slot to read; the first Get claims
// one.
func TestShardedLoadClaimsNoSlots(t *testing.T) {
	ix := newShardedBTree(8)
	for i := uint32(0); i < 2000; i++ {
		ix.Put(i*2_000_000, int(i))
	}
	if got := ix.MVCCInfo().ClaimedSlots; got != 0 {
		t.Fatalf("ClaimedSlots after a load with no readers = %d, want 0", got)
	}
	if _, ok := ix.Get(0); !ok {
		t.Fatal("Get(0) missed")
	}
	if got := ix.MVCCInfo().ClaimedSlots; got == 0 {
		t.Fatal("ClaimedSlots = 0 after a Get, want the reader's slot claimed")
	}
}

// TestShapeReusesOneSlot: the shape walks behind /stats and /metrics pin
// from one fixed slot, so renders from any goroutine or stack depth claim
// one slot between them and claimed_slots does not move between renders.
func TestShapeReusesOneSlot(t *testing.T) {
	ix := newVersionedSegTree()
	for i := uint32(0); i < 500; i++ {
		ix.Put(i, int(i))
	}
	var deep func(depth int)
	deep = func(depth int) {
		var pad [256]byte
		if depth > 0 {
			deep(depth - 1)
			return
		}
		_ = ix.Shape()
		_ = ix.IndexStats()
		_ = pad
	}
	_ = ix.Shape()
	want := ix.MVCCInfo().ClaimedSlots
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for depth := 0; depth < 40; depth += 3 {
				deep(depth)
			}
		}()
		wg.Wait()
	}
	if got := ix.MVCCInfo().ClaimedSlots; want == 0 || got != want {
		t.Fatalf("ClaimedSlots after one shape walk %d, after many %d: want the same, non-zero", want, got)
	}
}

// FuzzVersionedOps checks Versioned against a map model on all four
// structures. The script is a list of (op, key) byte pairs: Put, Delete
// (hit or miss), Snapshot and Release, run in one goroutine. After every
// step the live index must answer like the model, every held snapshot
// like the model did when it was taken, and the MVCC counters must match
// the writer's recycling exactly: each write releases the versions up to
// the oldest held snapshot's sequence (or the current one), the versions
// above that wait, a miss copies nothing, and a write to a non-empty
// index copies at least one node and at most two per level.
func FuzzVersionedOps(f *testing.F) {
	const (
		put, del, snapshot, release = 0, 1, 2, 3
	)
	// Two overlapping snapshots, the older released first: the writes
	// after the release still may not release what the younger one
	// reaches.
	f.Add([]byte{
		put, 1, snapshot, 0, put, 2, snapshot, 0, put, 3,
		release, 0, put, 4,
	})
	// A Delete miss copies and publishes nothing, and the next write
	// takes its fork.
	f.Add([]byte{put, 1, put, 2, del, 9, put, 3, snapshot, 0, del, 9, put, 4, put, 5, release, 0, put, 6})
	rng := rand.New(rand.NewSource(19))
	for range 4 {
		script := make([]byte, 400)
		rng.Read(script)
		f.Add(script)
	}
	// Sharded: a snapshot held across writes to the first and last
	// shards, a second one after them, released oldest first.
	f.Add([]byte{
		put, 0, put, 47, snapshot, 0, put, 10, put, 47, put, 30, snapshot, 0,
		put, 0, release, 0, put, 47, del, 30, release, 0, put, 20,
	})
	var makers []maker
	for _, m := range fuzzMakers() {
		if m.name != "sharded/segtree" {
			makers = append(makers, m)
		}
	}
	if len(makers) != 4 {
		f.Fatalf("model runs on %d structures, want 4", len(makers))
	}
	var sharded maker
	for _, m := range fuzzMakers() {
		if m.name == "sharded/segtree" {
			sharded = m
		}
	}
	type held struct {
		snap  *index.Snapshot[uint32, int]
		seq   uint64
		model map[uint32]int
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 400 {
			script = script[:400]
		}
		for _, m := range makers {
			ix := index.NewVersioned[uint32, int](m.new)
			model := map[uint32]int{}
			var snaps []held
			// The writer's expected state: the published sequence and the
			// highest sequence whose retired nodes it released.
			seq, released := uint64(1), uint64(1)
			var want obs.MVCCSnapshot
			// safe is the sequence a write may release up to.
			safe := func() uint64 {
				lo := seq
				for _, h := range snaps {
					lo = min(lo, h.seq)
				}
				return lo
			}
			// write accounts one write; levels is the index's height before
			// it and copied the nodes it copied.
			write := func(step int, publishes bool, levels int, copied uint64, empty bool) {
				if s := safe(); s > released {
					want.Reclaimed += s - released
					released = s
				}
				switch {
				case !publishes && copied != 0:
					t.Fatalf("%s step %d: a write that published nothing copied %d nodes", m.name, step, copied)
				case publishes && !empty && (copied == 0 || copied > uint64(2*levels)):
					t.Fatalf("%s step %d: a write to a %d-level index copied %d nodes", m.name, step, levels, copied)
				}
				if publishes {
					want.Published++
					seq++
				}
			}
			for i := 0; i+1 < len(script); i += 2 {
				op, k := script[i]%4, uint32(script[i+1]%48)
				levels := ix.Shape().Levels
				copied := ix.MVCCInfo().CopiedNodes
				switch op {
				case put:
					_, had := model[k]
					empty := len(model) == 0
					if added := ix.Put(k, i); added == had {
						t.Fatalf("%s step %d: Put(%d) added=%v, model had=%v", m.name, i/2, k, added, had)
					}
					model[k] = i
					write(i/2, true, levels, ix.MVCCInfo().CopiedNodes-copied, empty)
				case del:
					_, had := model[k]
					if removed := ix.Delete(k); removed != had {
						t.Fatalf("%s step %d: Delete(%d) = %v, model had=%v", m.name, i/2, k, removed, had)
					}
					delete(model, k)
					write(i/2, had, levels, ix.MVCCInfo().CopiedNodes-copied, false)
				case snapshot:
					if len(snaps) == 8 {
						continue
					}
					frozen := make(map[uint32]int, len(model))
					for k, v := range model {
						frozen[k] = v
					}
					snaps = append(snaps, held{ix.Snapshot(), seq, frozen})
				case release:
					if len(snaps) == 0 {
						continue
					}
					j := int(k) % len(snaps)
					snaps[j].snap.Release()
					snaps = append(snaps[:j], snaps[j+1:]...)
				}
				checkModel(t, fmt.Sprintf("%s step %d: live", m.name, i/2), ix, model)
				for _, h := range snaps {
					if got := h.snap.Seq(); got != h.seq {
						t.Fatalf("%s step %d: snapshot Seq moved %d -> %d", m.name, i/2, h.seq, got)
					}
					checkModel(t, fmt.Sprintf("%s step %d: snapshot at seq %d", m.name, i/2, h.seq), h.snap, h.model)
				}
				mv := ix.MVCCInfo()
				retired := int(seq - safe())
				if mv.Published != want.Published || mv.Cloned != 0 || mv.Reclaimed != want.Reclaimed ||
					mv.Versions[0] != seq || mv.ActiveSnapshots != len(snaps) || mv.RetiredVersions != retired {
					t.Fatalf("%s step %d: MVCCInfo published=%d cloned=%d reclaimed=%d version=%d active=%d retired=%d, "+
						"want %d 0 %d %d %d %d", m.name, i/2,
						mv.Published, mv.Cloned, mv.Reclaimed, mv.Versions[0], mv.ActiveSnapshots, mv.RetiredVersions,
						want.Published, want.Reclaimed, seq, len(snaps), retired)
				}
			}
			for _, h := range snaps {
				h.snap.Release()
			}
		}
		fuzzShardedOps(t, sharded.new, script)
	})
}

// fuzzShardedOps is FuzzVersionedOps' sharded arm: the same script over
// a Sharded index, each script key k spread to k·⌊2³²/48⌋ so that the
// keys fall into every shard. After every step the live index must
// answer like the model, every held snapshot like the model did when it
// was taken, each held snapshot must count as one active slot, and each
// shard must keep its own sequence and recycling: a write releases up
// to the oldest sequence a held snapshot pinned on its shard, whatever
// the other shards' readers pin.
func fuzzShardedOps(t *testing.T, newIndex func() index.Index[uint32, int], script []byte) {
	const (
		put, del, snapshot, release = 0, 1, 2, 3
		stride                      = math.MaxUint32 / 48
	)
	ix := newIndex().(*index.Sharded[uint32, int])
	shards := ix.Shards()
	shardOf := func(k uint32) int { return int(uint64(k) * uint64(shards) >> 32) }
	type held struct {
		snap  *index.Snapshot[uint32, int]
		seqs  []uint64
		model map[uint32]int
	}
	model := map[uint32]int{}
	var snaps []held
	// Each shard's published sequence and the highest sequence whose
	// retired nodes its writer released.
	seqs, released := make([]uint64, shards), make([]uint64, shards)
	for j := range seqs {
		seqs[j], released[j] = 1, 1
	}
	var published, reclaimed uint64
	safe := func(j int) uint64 {
		lo := seqs[j]
		for _, h := range snaps {
			lo = min(lo, h.seqs[j])
		}
		return lo
	}
	write := func(j int, publishes bool) {
		if s := safe(j); s > released[j] {
			reclaimed += s - released[j]
			released[j] = s
		}
		if publishes {
			published++
			seqs[j]++
		}
	}
	for i := 0; i+1 < len(script); i += 2 {
		op, k := script[i]%4, uint32(script[i+1]%48)*stride
		switch op {
		case put:
			_, had := model[k]
			if added := ix.Put(k, i); added == had {
				t.Fatalf("sharded step %d: Put(%d) added=%v, model had=%v", i/2, k, added, had)
			}
			model[k] = i
			write(shardOf(k), true)
		case del:
			_, had := model[k]
			if removed := ix.Delete(k); removed != had {
				t.Fatalf("sharded step %d: Delete(%d) = %v, model had=%v", i/2, k, removed, had)
			}
			delete(model, k)
			write(shardOf(k), had)
		case snapshot:
			if len(snaps) == 8 {
				continue
			}
			snaps = append(snaps, held{ix.Snapshot(), slices.Clone(seqs), maps.Clone(model)})
		case release:
			if len(snaps) == 0 {
				continue
			}
			j := int(k/stride) % len(snaps)
			snaps[j].snap.Release()
			snaps = append(snaps[:j], snaps[j+1:]...)
		}
		what := fmt.Sprintf("sharded step %d", i/2)
		checkSpreadModel(t, what+": live", ix, model, stride)
		for _, h := range snaps {
			if got := h.snap.Seqs(); !slices.Equal(got, h.seqs) {
				t.Fatalf("%s: snapshot Seqs moved %v -> %v", what, h.seqs, got)
			}
			checkSpreadModel(t, fmt.Sprintf("%s: snapshot at %v", what, h.seqs), h.snap, h.model, stride)
		}
		retired := 0
		for j := range seqs {
			retired += int(seqs[j] - safe(j))
		}
		mv := ix.MVCCInfo()
		if !slices.Equal(ix.Versions(), seqs) || !slices.Equal(mv.Versions, seqs) {
			t.Fatalf("%s: Versions() = %v, MVCCInfo versions %v, want %v", what, ix.Versions(), mv.Versions, seqs)
		}
		if mv.Published != published || mv.Reclaimed != reclaimed || mv.ActiveSnapshots != len(snaps) ||
			mv.RetiredVersions != retired || mv.Cloned != 0 {
			t.Fatalf("%s: MVCCInfo published=%d reclaimed=%d active=%d retired=%d cloned=%d, want %d %d %d %d 0",
				what, mv.Published, mv.Reclaimed, mv.ActiveSnapshots, mv.RetiredVersions, mv.Cloned,
				published, reclaimed, len(snaps), retired)
		}
	}
	for _, h := range snaps {
		h.snap.Release()
	}
}

// checkSpreadModel is checkModel over the spread keys k·stride, k < 48.
func checkSpreadModel(t *testing.T, what string, r interface {
	Get(uint32) (int, bool)
	Len() int
	Ascend(func(uint32, int) bool)
}, model map[uint32]int, stride uint32) {
	t.Helper()
	if n := r.Len(); n != len(model) {
		t.Fatalf("%s: Len = %d, want %d", what, n, len(model))
	}
	for k := uint32(0); k < 48; k++ {
		v, ok := r.Get(k * stride)
		mv, mok := model[k*stride]
		if ok != mok || v != mv {
			t.Fatalf("%s: Get(%d) = (%d,%v), want (%d,%v)", what, k*stride, v, ok, mv, mok)
		}
	}
	prev, n := int64(-1), 0
	r.Ascend(func(k uint32, v int) bool {
		if int64(k) <= prev || model[k] != v {
			t.Fatalf("%s: Ascend yielded (%d,%d) after key %d", what, k, v, prev)
		}
		prev = int64(k)
		n++
		return true
	})
	if n != len(model) {
		t.Fatalf("%s: Ascend visited %d items, want %d", what, n, len(model))
	}
}

// checkModel requires r to hold exactly model's items over the fuzz key
// range: Len, every Get, and ascending iteration.
func checkModel(t *testing.T, what string, r interface {
	Get(uint32) (int, bool)
	Len() int
	Ascend(func(uint32, int) bool)
}, model map[uint32]int) {
	t.Helper()
	checkSpreadModel(t, what, r, model, 1)
}

// TestSnapshotUnderConcurrentWrites race-tests the reader protocol: a
// continuous writer advances the index while readers take snapshots and
// verify them frozen (two full iterations agree with each other and with
// Len), and lock-free Gets observe a monotonically increasing value —
// published versions can never run backwards.
func TestSnapshotUnderConcurrentWrites(t *testing.T) {
	for _, tc := range []struct {
		name string
		ix   interface {
			index.Index[uint32, int]
			Snapshot() *index.Snapshot[uint32, int]
		}
	}{
		{"versioned", newVersionedSegTree()},
		{"sharded", newShardedBTree(5)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ix := tc.ix
			const counterKey = uint32(7)
			ix.Put(counterKey, 0)

			var stop atomic.Bool
			var writerOps atomic.Int64
			var writerWg, readerWg sync.WaitGroup
			// The readers start once the writer has made its first op, so
			// they cannot all finish before it is first scheduled.
			started := make(chan struct{})
			writerWg.Add(1)
			go func() {
				defer writerWg.Done()
				rng := rand.New(rand.NewSource(42))
				for i := 1; !stop.Load(); i++ {
					ix.Put(counterKey, i)
					k := uint32(rng.Intn(2000)) + 100
					if rng.Intn(3) == 0 {
						ix.Delete(k)
					} else {
						ix.Put(k, i)
					}
					if writerOps.Add(1) == 1 {
						close(started)
					}
				}
			}()

			const readers = 4
			readerWg.Add(readers)
			for r := 0; r < readers; r++ {
				go func(seed int64) {
					defer readerWg.Done()
					<-started
					last := -1
					for i := 0; i < 300; i++ {
						v, ok := ix.Get(counterKey)
						if !ok || v < last {
							t.Errorf("Get(counter) = (%d,%v) after seeing %d: versions ran backwards", v, ok, last)
							return
						}
						last = v

						snap := ix.Snapshot()
						type kv struct {
							k uint32
							v int
						}
						var first []kv
						snap.Ascend(func(k uint32, v int) bool {
							first = append(first, kv{k, v})
							return true
						})
						if len(first) != snap.Len() {
							t.Errorf("snapshot iteration saw %d items, Len says %d", len(first), snap.Len())
							snap.Release()
							return
						}
						j := 0
						consistent := true
						snap.Ascend(func(k uint32, v int) bool {
							if j >= len(first) || first[j].k != k || first[j].v != v {
								consistent = false
								return false
							}
							j++
							return true
						})
						if !consistent || j != len(first) {
							t.Error("two iterations of one snapshot disagree: the view is not frozen")
							snap.Release()
							return
						}
						snap.Release()
					}
				}(int64(r))
			}

			// Let readers finish against the live writer, then stop it.
			readerWg.Wait()
			stop.Store(true)
			writerWg.Wait()

			if writerOps.Load() == 0 {
				t.Fatal("writer made no progress")
			}
		})
	}
}

// stressOps returns the per-worker operation count of the mixed-load
// stress test: the quick default for go test, or SIMDTREE_STRESS_OPS for
// the long CI stress job (make stress).
func stressOps(t *testing.T) int {
	if s := os.Getenv("SIMDTREE_STRESS_OPS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n <= 0 {
			t.Fatalf("bad SIMDTREE_STRESS_OPS %q: %v", s, err)
		}
		return n
	}
	return 3000
}

// TestMVCCStressMixedLoad is the race-run stress of the whole MVCC
// stack: the instrumented sharded index under concurrent point reads,
// batch reads, scans, snapshots and per-shard writers. Correctness
// invariants are the frozen-snapshot property and a per-key
// monotonically versioned value; throughput is not asserted. Scale with
// SIMDTREE_STRESS_OPS (see make stress).
func TestMVCCStressMixedLoad(t *testing.T) {
	ops := stressOps(t)
	ix := index.NewInstrumented[uint32, int](newShardedBTree(5))
	for i := uint32(0); i < 1000; i++ {
		ix.Put(i, 0)
	}

	const writers, readers = 3, 5
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 1; i <= ops; i++ {
				k := uint32(rng.Intn(4000))
				switch rng.Intn(5) {
				case 0:
					ix.Delete(k)
				default:
					ix.Put(k, i)
				}
			}
		}(int64(w + 1))
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(-seed))
			var batch [16]uint32
			for i := 0; i < ops; i++ {
				switch i % 7 {
				case 0:
					// Frozen-snapshot invariant: Len agrees with a walk.
					snap, ok := ix.ReadSnapshot()
					if !ok {
						t.Error("sharded index did not hand out a snapshot")
						return
					}
					n := 0
					snap.Ascend(func(uint32, int) bool { n++; return true })
					if n != snap.Len() {
						t.Errorf("snapshot walk %d != Len %d", n, snap.Len())
						snap.Release()
						return
					}
					snap.Release()
				case 1:
					for j := range batch {
						batch[j] = uint32(rng.Intn(4000))
					}
					vals, found := ix.GetBatch(batch[:])
					for j := range batch {
						if found[j] && vals[j] < 0 {
							t.Errorf("GetBatch surfaced impossible value %d", vals[j])
							return
						}
					}
				case 2:
					lo := uint32(rng.Intn(3000))
					prev := -1
					ix.Scan(lo, lo+200, func(k uint32, v int) bool {
						if int(k) <= prev {
							t.Errorf("Scan out of order at %d after %d", k, prev)
							return false
						}
						prev = int(k)
						return true
					})
				default:
					ix.Get(uint32(rng.Intn(4000)))
				}
			}
		}(int64(r + 1))
	}
	wg.Wait()

	mv, ok := ix.MVCCInfo()
	if !ok {
		t.Fatal("no MVCC info from the sharded index")
	}
	if mv.Published == 0 {
		t.Fatal("no versions published under load")
	}
	if mv.ActiveSnapshots != 0 {
		t.Errorf("ActiveSnapshots = %d after quiescence, want 0 (leaked pin)", mv.ActiveSnapshots)
	}
}
