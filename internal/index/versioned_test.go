package index_test

// Tests of the MVCC layer: snapshot isolation (a pinned reader keeps a
// frozen version while writers advance the live index), version
// rotation and reclamation accounting, the forced-clone path under a
// long-lived pin, and race-run concurrent mixed loads. Everything here
// drives the public API; the internal epoch protocol is observed through
// MVCCInfo counters.

import (
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/bitmask"
	"repro/internal/btree"
	"repro/internal/index"
	"repro/internal/kary"
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

// TestVersionedRotation verifies the steady-state write path: with no
// long pins the writer ping-pongs between two trees — versions publish
// one per mutation, superseded versions are reclaimed promptly, and no
// clone is ever forced.
func TestVersionedRotation(t *testing.T) {
	ix := newVersionedSegTree()
	const writes = 1000
	for i := 0; i < writes; i++ {
		ix.Put(uint32(i%300), i)
	}
	if got, want := ix.Version(), uint64(writes+1); got != want {
		t.Errorf("Version = %d, want %d (seq 1 + %d puts)", got, want, writes)
	}
	mv := ix.MVCCInfo()
	if mv.Published != writes {
		t.Errorf("Published = %d, want %d", mv.Published, writes)
	}
	if mv.Cloned != 0 {
		t.Errorf("Cloned = %d, want 0: rotation must never copy without a pinned snapshot", mv.Cloned)
	}
	if mv.RetiredVersions > 2 {
		t.Errorf("RetiredVersions = %d, want <= 2 at rest", mv.RetiredVersions)
	}
	if mv.ActiveSnapshots != 0 {
		t.Errorf("ActiveSnapshots = %d, want 0 with no readers", mv.ActiveSnapshots)
	}
	// Every retirement is eventually a reclaim: all but the still-retired
	// tail have been handed back.
	if want := mv.Published - uint64(mv.RetiredVersions); mv.Reclaimed < want {
		t.Errorf("Reclaimed = %d, want >= %d", mv.Reclaimed, want)
	}
	if mv.PublishLatency.Count != writes {
		t.Errorf("publish latency observations = %d, want %d", mv.PublishLatency.Count, writes)
	}
	// Delete misses publish nothing.
	if ix.Delete(9999) {
		t.Fatal("Delete(9999) hit")
	}
	if got := ix.MVCCInfo().Published; got != writes {
		t.Errorf("Published after delete miss = %d, want unchanged %d", got, writes)
	}
}

// TestVersionedClonePath verifies the long-pin fallback: a held snapshot
// parks its tree, the writer clones exactly once to regain a mutable
// tree, and after Release the parked version is reclaimed and rotation
// resumes copy-free.
func TestVersionedClonePath(t *testing.T) {
	ix := newVersionedSegTree()
	for i := uint32(0); i < 100; i++ {
		ix.Put(i, int(i))
	}
	snap := ix.Snapshot()
	for i := 0; i < 50; i++ {
		ix.Put(uint32(200+i), i)
	}
	mv := ix.MVCCInfo()
	if mv.Cloned != 1 {
		t.Errorf("Cloned under one held snapshot = %d, want exactly 1", mv.Cloned)
	}
	if mv.ActiveSnapshots != 1 {
		t.Errorf("ActiveSnapshots = %d, want 1", mv.ActiveSnapshots)
	}
	if n := snap.Len(); n != 100 {
		t.Errorf("held snapshot Len = %d, want 100", n)
	}
	snap.Release()
	for i := 0; i < 50; i++ {
		ix.Put(uint32(400+i), i)
	}
	mv = ix.MVCCInfo()
	if mv.Cloned != 1 {
		t.Errorf("Cloned after release = %d, want still 1", mv.Cloned)
	}
	if mv.ActiveSnapshots != 0 || mv.RetiredVersions > 2 {
		t.Errorf("post-release state: active=%d retired=%d, want 0/<=2",
			mv.ActiveSnapshots, mv.RetiredVersions)
	}
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
					writerOps.Add(1)
				}
			}()

			const readers = 4
			readerWg.Add(readers)
			for r := 0; r < readers; r++ {
				go func(seed int64) {
					defer readerWg.Done()
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
