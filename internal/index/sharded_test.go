package index_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/btree"
	"repro/internal/index"
	"repro/internal/segtree"
)

func newShardedSegTree(shards int) *index.Sharded[uint32, int] {
	return index.NewSharded[uint32, int](shards, func() index.Index[uint32, int] {
		return segtree.New[uint32, int](segtree.Config{
			LeafCap: 8, BranchCap: 8,
			Layout:    segtree.DefaultConfig[uint32]().Layout,
			Evaluator: segtree.DefaultConfig[uint32]().Evaluator,
		})
	})
}

// TestShardedRouting pins the key-range partition: routed shards are
// monotone in key order, every shard stays within [0, Shards), and the
// extremes land on the first and last shard.
func TestShardedRouting(t *testing.T) {
	s := newShardedSegTree(7)
	if s.Shards() != 7 {
		t.Fatalf("Shards() = %d", s.Shards())
	}
	const n = 1 << 16
	for i := uint32(0); i < n; i++ {
		k := i * (1 << 16) // spread across the 32-bit domain
		s.Put(k, int(i))
	}
	// Ascend visits all keys in order, proving the partition is ordered.
	prev := -1
	count := 0
	s.Ascend(func(k uint32, v int) bool {
		if int(k) <= prev {
			t.Fatalf("Ascend out of order at key %d", k)
		}
		prev = int(k)
		count++
		return true
	})
	if count != n {
		t.Fatalf("Ascend visited %d of %d", count, n)
	}
	// All shards should hold a slice of a uniform key spread.
	st := s.IndexStats()
	if st.Keys != n {
		t.Fatalf("stats keys %d", st.Keys)
	}
}

// TestShardedConcurrentMixedLoad hammers a sharded Seg-Tree with mixed
// Get/Put/Delete/GetBatch from many goroutines — the acceptance check for
// the per-shard locking (meaningful under -race). The final state is
// verified against a mutex-guarded reference map.
func TestShardedConcurrentMixedLoad(t *testing.T) {
	s := newShardedSegTree(16)
	var refMu sync.Mutex
	ref := map[uint32]int{}

	const workers = 8
	const opsPerWorker = 3000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			batch := make([]uint32, 16)
			for i := 0; i < opsPerWorker; i++ {
				// Spread keys over the full domain so every shard sees
				// traffic.
				k := uint32(rng.Intn(4096)) * (1 << 20)
				switch rng.Intn(4) {
				case 0:
					v := rng.Int()
					refMu.Lock()
					s.Put(k, v)
					ref[k] = v
					refMu.Unlock()
				case 1:
					refMu.Lock()
					s.Delete(k)
					delete(ref, k)
					refMu.Unlock()
				case 2:
					s.Get(k) // timing-dependent; must not race
				default:
					for j := range batch {
						batch[j] = uint32(rng.Intn(4096)) * (1 << 20)
					}
					s.GetBatch(batch) // must not race with writers
				}
			}
		}(int64(w + 1))
	}
	wg.Wait()

	if s.Len() != len(ref) {
		t.Fatalf("len %d want %d", s.Len(), len(ref))
	}
	for k, v := range ref {
		if got, ok := s.Get(k); !ok || got != v {
			t.Fatalf("key %d: got (%d,%v) want (%d,true)", k, got, ok, v)
		}
	}
}

// TestShardedBatchCrossesShards verifies GetBatch scatters and gathers
// correctly when one batch spans many shards.
func TestShardedBatchCrossesShards(t *testing.T) {
	s := newShardedSegTree(16)
	rng := rand.New(rand.NewSource(77))
	ref := map[uint32]int{}
	for i := 0; i < 20000; i++ {
		k := rng.Uint32()
		ref[k] = i
		s.Put(k, i)
	}
	probes := make([]uint32, 5000)
	for i := range probes {
		if i%2 == 0 {
			probes[i] = rng.Uint32() // mostly misses
		} else {
			for k := range ref { // an arbitrary present key
				probes[i] = k
				break
			}
		}
	}
	vals, found := s.GetBatch(probes)
	for i, p := range probes {
		want, ok := ref[p]
		if found[i] != ok || (ok && vals[i] != want) {
			t.Fatalf("probe %d key %d: got (%d,%v) want (%d,%v)", i, p, vals[i], found[i], want, ok)
		}
	}
}

func TestShardedPanicsOnBadCount(t *testing.T) {
	newOne := func() index.Index[uint32, int] {
		return segtree.NewDefault[uint32, int]()
	}
	for _, count := range []int{0, -1, -100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("no panic for shard count %d", count)
				}
			}()
			index.NewSharded[uint32, int](count, newOne)
		}()
	}
	// The minimum valid count must construct a working single-shard index.
	s := index.NewSharded[uint32, int](1, newOne)
	s.Put(7, 70)
	if v, ok := s.Get(7); !ok || v != 70 {
		t.Fatalf("single-shard Get(7) = %d, %v; want 70, true", v, ok)
	}
}

// readerSlots is the slot count of an index's one reader-slot array on
// this machine: 8 per P, at least 64, rounded up to a power of two.
func readerSlots() int {
	n := 64
	for n < 8*runtime.GOMAXPROCS(0) {
		n *= 2
	}
	return n
}

// TestShardsShareOneSlotArray: every shard of a Sharded index announces
// in one array with one claimed word, and the index reports that array's
// size, not the sum over its shards.
func TestShardsShareOneSlotArray(t *testing.T) {
	ix := newShardedSegTree(16)
	if !index.SharesOneSlotArray(ix) {
		t.Fatal("the shards do not share one reader-slot array and claimed word")
	}
	if got := ix.MVCCInfo().ReaderSlots; got != readerSlots() {
		t.Errorf("16-shard ReaderSlots = %d, want the one array's %d", got, readerSlots())
	}
	if got := newVersionedSegTree().MVCCInfo().ReaderSlots; got != readerSlots() {
		t.Errorf("Versioned ReaderSlots = %d, want %d", got, readerSlots())
	}
}

// TestShardedSnapshotClaimsOneSlot: a whole-index Snapshot announces in
// one slot however many shards it pins, so a 16-shard snapshot counts as
// one active snapshot, and a 100-shard index over 64 slots still takes
// one and reads beside it.
func TestShardedSnapshotClaimsOneSlot(t *testing.T) {
	ix := newShardedBTree(16)
	for i := uint32(0); i < 1000; i++ {
		ix.Put(i<<22, int(i))
	}
	snap := ix.Snapshot()
	if got := ix.MVCCInfo().ActiveSnapshots; got != 1 {
		t.Errorf("a held 16-shard Snapshot: ActiveSnapshots = %d, want 1", got)
	}
	if got, want := len(snap.Seqs()), 16; got != want {
		t.Errorf("snapshot pins %d shards, want %d", got, want)
	}
	snap.Release()
	if got := ix.MVCCInfo().ActiveSnapshots; got != 0 {
		t.Errorf("after Release: ActiveSnapshots = %d, want 0", got)
	}

	wide := index.NewShardedSlots[uint32, int](100, 64, func() index.Index[uint32, int] {
		return btree.New[uint32, int](btree.Config{LeafCap: 6, BranchCap: 6})
	})
	for i := uint32(0); i < 1000; i++ {
		wide.Put(i*4_294_967, int(i))
	}
	done := make(chan error, 1)
	go func() {
		snap := wide.Snapshot()
		defer snap.Release()
		wide.Put(0, -1)
		if v, ok := snap.Get(0); !ok || v != 0 {
			done <- fmt.Errorf("held snapshot Get(0) = (%d,%v), want (0,true)", v, ok)
			return
		}
		if v, ok := wide.Get(0); !ok || v != -1 {
			done <- fmt.Errorf("live Get(0) = (%d,%v), want (-1,true)", v, ok)
			return
		}
		if got := wide.MVCCInfo().ActiveSnapshots; got != 1 {
			done <- fmt.Errorf("100-shard snapshot: ActiveSnapshots = %d, want 1", got)
			return
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("Snapshot + Get + Release of a 100-shard index over 64 slots did not complete")
	}
}

// TestShardedReaderDoesNotHoldBackOtherShards: a snapshot of shard A
// announces A's sequence under A's tag, so while it is held, shard B —
// whose sequences run far above A's — still releases everything its
// writes retire, and A's writes keep every node the snapshot reaches.
func TestShardedReaderDoesNotHoldBackOtherShards(t *testing.T) {
	ix := newShardedBTree(4)
	keyA := func(i int) uint32 { return uint32(i) }               // shard 0
	keyB := func(i int) uint32 { return 0xF000_0000 + uint32(i) } // shard 3
	a, b := index.Shard(ix, 0), index.Shard(ix, 3)
	for i := 0; i < 200; i++ {
		ix.Put(keyA(i), i)
	}
	for i := 0; i < 500; i++ {
		ix.Put(keyB(i), i)
	}
	snapA := a.Snapshot()
	defer snapA.Release()
	shapeA := fmt.Sprintf("%+v", snapA.Shape())
	for round := 0; round < 5; round++ {
		for i := 0; i < 200; i++ {
			ix.Put(keyB(i), -i)
			ix.Put(keyA(i), -i-1)
		}
	}
	if mv := b.MVCCInfo(); mv.Reclaimed != mv.Published-1 || mv.RetiredVersions != 0 {
		t.Errorf("shard B under A's snapshot: Reclaimed = %d of %d published, RetiredVersions = %d; want Published − 1 and 0",
			mv.Reclaimed, mv.Published, mv.RetiredVersions)
	}
	if mv := a.MVCCInfo(); mv.Reclaimed != snapA.Seq()-1 || mv.RetiredVersions != 1000 {
		t.Errorf("shard A under its snapshot: Reclaimed = %d, RetiredVersions = %d; want %d and 1000",
			mv.Reclaimed, mv.RetiredVersions, snapA.Seq()-1)
	}
	for i := 0; i < 200; i++ {
		if v, ok := snapA.Get(keyA(i)); !ok || v != i {
			t.Fatalf("held snapshot of A: Get(%d) = (%d,%v), want (%d,true)", keyA(i), v, ok, i)
		}
	}
	n := 0
	snapA.Ascend(func(k uint32, v int) bool {
		if k != keyA(n) || v != n {
			t.Fatalf("held snapshot of A: item %d is (%d,%d), want (%d,%d)", n, k, v, keyA(n), n)
		}
		n++
		return true
	})
	if n != 200 {
		t.Errorf("held snapshot of A holds %d items, want 200", n)
	}
	if got := fmt.Sprintf("%+v", snapA.Shape()); got != shapeA {
		t.Errorf("held snapshot of A changed shape:\n%s\nwant\n%s", got, shapeA)
	}
}
