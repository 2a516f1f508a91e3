package index_test

// The batch contract every implementation shares: GetBatchInto writes
// exactly what serial Get answers, into caller-owned buffers, and a
// sharded batch reads each shard from one pinned version.

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/index"
	"repro/internal/segtree"
)

// TestGetBatchPinsEachShardOnce pins the consistency guarantee of a
// sharded batch: all keys that route to one shard are answered from a
// single version of that shard. A writer stores generation g under a and
// then under b, two keys of shard 0, for increasing g; every version
// therefore holds gen(b) ≤ gen(a), and a batch asking for a before b can
// only see gen(b) > gen(a) if it pinned the shard again between the two
// keys. Keys of other shards sit between a and b in the batch, widening
// that window for an implementation that pins per key in input order.
// The pattern runs once, and repeated eight times, so that shard 0
// answers sixteen keys from its one pin.
func TestGetBatchPinsEachShardOnce(t *testing.T) {
	const a, b = 1, 2
	writes := 4 * stressOps(t)
	for _, reps := range []int{1, 8} {
		ix := index.NewSharded[uint32, int](16, func() index.Index[uint32, int] {
			return segtree.New[uint32, int](segtree.Config{LeafCap: 6, BranchCap: 6})
		})
		var pattern []uint32
		pattern = append(pattern, a)
		for s := uint32(1); s < 6; s++ {
			pattern = append(pattern, s<<28) // shard s of 16
		}
		pattern = append(pattern, b)
		for _, k := range pattern {
			ix.Put(k, 0)
		}
		var batch []uint32
		for range reps {
			batch = append(batch, pattern...)
		}
		vals := make([]int, len(batch))
		found := make([]bool, len(batch))
		var done atomic.Bool
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer done.Store(true)
			for g := 1; g <= writes; g++ {
				ix.Put(a, g)
				ix.Put(b, g)
			}
		}()
		batches := 0
		for !done.Load() || batches == 0 {
			ix.GetBatchInto(batch, vals, found)
			batches++
			for i := 0; i < len(batch); i += len(pattern) {
				j := i + len(pattern) - 1
				if !found[i] || !found[j] {
					t.Fatalf("batch %d (%d keys): a or b missing", batches, len(batch))
				}
				if vals[j] > vals[i] {
					t.Fatalf("batch %d (%d keys): gen(b)=%d > gen(a)=%d — shard 0 was pinned more than once",
						batches, len(batch), vals[j], vals[i])
				}
			}
		}
		wg.Wait()
	}
}

// FuzzGetBatch runs random puts and deletes, then random batches with
// duplicates and misses, on all four structures and on Sharded indexes
// over the Seg-Tree and the B+-Tree (whose shards answer the probes a
// batch routes to them in place), and requires GetBatchInto (into junk-filled
// buffers) and GetBatch to answer exactly what serial Get does.
func FuzzGetBatch(f *testing.F) {
	f.Add(int64(1), uint16(300), uint8(17))
	f.Add(int64(2), uint16(3000), uint8(200))
	f.Add(int64(3), uint16(0), uint8(1))
	// fuzzMakers' Sharded Seg-Tree plus a Sharded B+-Tree: the sharded
	// routing over both structures whose bare batches interleave.
	ms := fuzzMakers()
	for _, m := range makers() {
		if m.name == "sharded/btree" {
			ms = append(ms, m)
		}
	}
	if len(ms) != 6 {
		f.Fatalf("fuzz matrix has %d implementations, want 6", len(ms))
	}
	f.Fuzz(func(t *testing.T, seed int64, ops uint16, batches uint8) {
		rng := rand.New(rand.NewSource(seed))
		for _, m := range ms {
			ix := m.new()
			for range int(ops) {
				k := uint32(rng.Intn(2000)) * spread
				if rng.Intn(4) == 0 {
					ix.Delete(k)
				} else {
					ix.Put(k, rng.Int())
				}
			}
			for range int(batches) % 16 {
				probes := make([]uint32, rng.Intn(300))
				for i := range probes {
					probes[i] = uint32(rng.Intn(2200)) * spread // hits, misses, duplicates
				}
				checkBatch(t, m.name, ix, probes)
			}
		}
	})
}

// spread scales the fuzz keys across the whole 32-bit key space, so the
// Sharded index routes them to every shard.
const spread = 1 << 21

// fuzzMakers is one of each structure, bare, plus Sharded over a
// Seg-Tree: the implementations FuzzVersionedOps drives (without the
// Sharded one), and FuzzGetBatch drives with a Sharded B+-Tree added.
func fuzzMakers() []maker {
	var ms []maker
	for _, m := range makers() {
		switch m.name {
		case "btree", "segtree/depth-first/popcount", "segtrie/depth-first/popcount",
			"opt-segtrie/depth-first/popcount", "sharded/segtree":
			ms = append(ms, m)
		}
	}
	return ms
}
