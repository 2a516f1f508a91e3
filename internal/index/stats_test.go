package index_test

// Hand-computed IndexStats fixtures: tiny trees of every structure whose
// shape can be derived on paper from the construction rules, pinning the
// Keys/Height/Nodes/MemoryBytes accounting against the paper's §5.1 model
// (key slots cost the key width, pointers eight bytes).

import (
	"testing"

	"repro/internal/bitmask"
	"repro/internal/btree"
	"repro/internal/index"
	"repro/internal/kary"
	"repro/internal/segtree"
	"repro/internal/segtrie"
)

func checkStats(t *testing.T, got, want index.Stats) {
	t.Helper()
	if got != want {
		t.Errorf("IndexStats = %+v, want %+v", got, want)
	}
}

// TestBTreeStatsHandComputed: LeafCap 2, BranchCap 3, keys 1..6 (uint32).
// BulkLoad packs leaves [1 2][3 4][5 6]; one root (fanout 4 ≥ 3 leaves)
// holds separators [3 5]. Memory: 3 leaves × (2·4B keys + 2·8B values)
// + root (2·4B keys + 3·8B children) = 72 + 32.
func TestBTreeStatsHandComputed(t *testing.T) {
	ks := []uint32{1, 2, 3, 4, 5, 6}
	vs := []int{10, 20, 30, 40, 50, 60}
	ix := btree.BulkLoad(btree.Config{LeafCap: 2, BranchCap: 3}, ks, vs)
	checkStats(t, ix.IndexStats(), index.Stats{
		Keys:           6,
		Height:         2,
		Nodes:          4,
		MemoryBytes:    104,
		KeyMemoryBytes: 32, // (6 leaf + 2 separator keys) × 4 bytes
	})
}

// TestSegTreeStatsHandComputed: LeafCap 2, BranchCap 2, keys 1..4
// (uint32, so k = 5, lanes = 4). BulkLoad packs leaves [1 2][3 4]; one
// root holds separator [3]. Every node's k-ary tree stores one 4-lane
// node (16 bytes) regardless of holding 1 or 2 keys — replenishment pads
// fill the remaining slots. Memory: 2 leaves × (16 + 2·8) + root (16 +
// 2·8) = 64 + 32.
func TestSegTreeStatsHandComputed(t *testing.T) {
	ks := []uint32{1, 2, 3, 4}
	vs := []int{10, 20, 30, 40}
	cfg := segtree.Config{LeafCap: 2, BranchCap: 2,
		Layout: kary.BreadthFirst, Evaluator: bitmask.Popcount}
	ix := segtree.BulkLoad(cfg, ks, vs)
	checkStats(t, ix.IndexStats(), index.Stats{
		Keys:           4,
		Height:         2,
		Nodes:          3,
		MemoryBytes:    96,
		KeyMemoryBytes: 48, // 3 k-ary trees × 4 stored slots × 4 bytes
	})
}

// TestSegTrieStatsHandComputed: keys {1,2,3} (uint32 ⇒ 4 levels). The
// partial-key path is 0·0·0·{1,2,3}: three single-key inner nodes and one
// leaf with three keys. Every node's 17-ary tree stores one 16-lane node
// (16 one-byte slots). Memory: 3 inner × (16 + 1·8) + leaf (16 + 3·8) =
// 72 + 40. Height is the fixed level count r = 32/8.
func TestSegTrieStatsHandComputed(t *testing.T) {
	ix := segtrie.New[uint32, int](segtrie.Config{
		Layout: kary.BreadthFirst, Evaluator: bitmask.Popcount})
	for i, k := range []uint32{1, 2, 3} {
		ix.Put(k, i)
	}
	checkStats(t, ix.IndexStats(), index.Stats{
		Keys:           3,
		Height:         4,
		Nodes:          4,
		MemoryBytes:    112,
		KeyMemoryBytes: 64, // 4 nodes × 16 one-byte slots
	})
}

// TestOptimizedTrieStatsHandComputed: same keys in the optimized trie.
// Lazy expansion collapses the single-key chain into a three-byte prefix
// on one value node, so a lookup performs one node search (Height 1).
// Memory: 16 key slots + 3 prefix bytes + 3·8 value pointers = 43.
func TestOptimizedTrieStatsHandComputed(t *testing.T) {
	ix := segtrie.NewOptimized[uint32, int](segtrie.Config{
		Layout: kary.BreadthFirst, Evaluator: bitmask.Popcount})
	for i, k := range []uint32{1, 2, 3} {
		ix.Put(k, i)
	}
	checkStats(t, ix.IndexStats(), index.Stats{
		Keys:           3,
		Height:         1,
		Nodes:          1,
		MemoryBytes:    43,
		KeyMemoryBytes: 19, // 16 slots + 3 prefix bytes
	})
}
