package simdtree_test

import (
	"testing"

	simdtree "repro"
)

func TestFacadeSegTree(t *testing.T) {
	tr := simdtree.NewSegTree[uint32, string]()
	if !tr.Put(42, "answer") {
		t.Fatal("put")
	}
	if v, ok := tr.Get(42); !ok || v != "answer" {
		t.Fatal("get")
	}
	if _, ok := tr.Get(43); ok {
		t.Fatal("phantom")
	}
	if cfg := tr.Config(); cfg.LeafCap != 338 {
		t.Fatalf("default config leaf cap %d", cfg.LeafCap)
	}
	tr2 := simdtree.NewSegTree[uint32, string](
		simdtree.WithLayout(simdtree.BreadthFirst), simdtree.WithEvaluator(simdtree.SwitchCase))
	tr2.Put(7, "seven")
	if v, ok := tr2.Get(7); !ok || v != "seven" {
		t.Fatal("custom config get")
	}
}

func TestFacadeBulkLoadAndScan(t *testing.T) {
	ks := make([]uint64, 1000)
	vs := make([]int, 1000)
	for i := range ks {
		ks[i] = uint64(i * 2)
		vs[i] = i
	}
	seg := simdtree.BulkLoadSegTree(ks, vs)
	base := simdtree.BulkLoadBPlusTree(ks, vs,
		simdtree.WithLeafCap(64), simdtree.WithBranchCap(64))
	if c := base.Config(); c.LeafCap != 64 || c.BranchCap != 64 {
		t.Fatalf("B+ bulk load caps not applied: %+v", c)
	}
	seg2 := simdtree.BulkLoadSegTree(ks, vs, simdtree.WithLayout(simdtree.BreadthFirst))
	if seg2.Len() != seg.Len() || seg2.Config().Layout != simdtree.BreadthFirst {
		t.Fatalf("optioned bulk load diverged: %d keys, %+v", seg2.Len(), seg2.Config())
	}
	count := 0
	seg.Scan(100, 200, func(k uint64, v int) bool { count++; return true })
	if count != 51 {
		t.Fatalf("seg scan count %d", count)
	}
	count = 0
	base.Scan(100, 200, func(k uint64, v int) bool { count++; return true })
	if count != 51 {
		t.Fatalf("base scan count %d", count)
	}
}

func TestFacadeTries(t *testing.T) {
	trie := simdtree.NewSegTrie[uint64, int]()
	opt := simdtree.NewOptimizedSegTrie[uint64, int]()
	for i := 0; i < 1000; i++ {
		trie.Put(uint64(i), i)
		opt.Put(uint64(i), i)
	}
	if v, ok := trie.Get(999); !ok || v != 999 {
		t.Fatal("trie get")
	}
	if v, ok := opt.Get(999); !ok || v != 999 {
		t.Fatal("optimized get")
	}
	if trie.Levels() != 8 {
		t.Fatal("trie levels")
	}
	custom := []simdtree.Option{simdtree.WithLayout(simdtree.DepthFirst), simdtree.WithEvaluator(simdtree.BitShift)}
	tr2 := simdtree.NewSegTrie[uint32, int](custom...)
	tr2.Put(5, 5)
	if !tr2.Contains(5) {
		t.Fatal("custom trie")
	}
	opt2 := simdtree.NewOptimizedSegTrie[uint32, int](custom...)
	opt2.Put(5, 5)
	if !opt2.Contains(5) {
		t.Fatal("custom optimized trie")
	}
}

func TestFacadeKaryTree(t *testing.T) {
	sorted := []int64{1, 5, 9, 12, 20, 33, 47, 58}
	kt := simdtree.BuildKaryTree(sorted, simdtree.BreadthFirst)
	for _, v := range []int64{0, 1, 5, 6, 58, 60} {
		if got, want := kt.Search(v, simdtree.Popcount), simdtree.UpperBound(sorted, v); got != want {
			t.Fatalf("search %d: got %d want %d", v, got, want)
		}
	}
}

func TestFacadeTable2Constants(t *testing.T) {
	if simdtree.KValue[uint8]() != 17 || simdtree.ParallelComparisons[uint8]() != 16 {
		t.Fatal("8-bit table 2")
	}
	if simdtree.KValue[uint64]() != 3 || simdtree.ParallelComparisons[uint64]() != 2 {
		t.Fatal("64-bit table 2")
	}
}

// NewInstrumentedIndex must leave the caller's option slice alone: an
// append onto a variadic slice with spare capacity would overwrite the
// caller's backing array, here turning s's WithShards into something
// else.
func TestNewInstrumentedIndexKeepsCallerOptions(t *testing.T) {
	base := make([]simdtree.Option, 0, 2)
	base = append(base, simdtree.WithStructure(simdtree.StructureSegTree))
	s := append(base, simdtree.WithShards(4))
	simdtree.NewInstrumentedIndex[uint64, int](base...)
	ix := simdtree.NewIndex[uint64, int](s...)
	if _, ok := ix.(*simdtree.ShardedIndex[uint64, int]); !ok {
		t.Fatalf("NewIndex(WithShards(4)) after NewInstrumentedIndex = %T, want *ShardedIndex", ix)
	}
}
