package simdtree_test

// Black-box checks of the observability layer against the paper's §4
// comparison model, driven entirely through the public facade: the
// returned lookup costs must reproduce the comparison counts the paper derives
// analytically, on real structures built through the public API.

import (
	"errors"
	"strings"
	"testing"

	simdtree "repro"
	"repro/internal/kary"
)

// countGet runs one lookup and returns the cost it reports.
func countGet[K simdtree.Key, V any](t *testing.T, ix simdtree.Index[K, V], k K) simdtree.Cost {
	t.Helper()
	_, ok, c := ix.GetTraced(k, nil)
	if !ok {
		t.Fatalf("Get(%v) missed", k)
	}
	return c
}

// TestComparisonModelFullTrieNode pins the paper's §4 claim that one full
// 17-ary trie node costs exactly 2 SIMD comparisons: 17 partial keys form
// a two-level 17-ary tree, and the descent compares one register per
// level. An 8-bit key space gives a single-level trie, so the whole
// lookup is that one node search.
func TestComparisonModelFullTrieNode(t *testing.T) {
	ix := simdtree.NewSegTrie[uint8, int]()
	for k := uint8(0); k < 17; k++ {
		ix.Put(k, int(k))
	}
	s := countGet(t, ix, uint8(3))
	if s.SIMDComparisons != 2 {
		t.Errorf("17-key trie node Get = %d SIMD comparisons, want 2 (§4)", s.SIMDComparisons)
	}
	if s.NodeVisits != 1 {
		t.Errorf("NodeVisits = %d, want 1", s.NodeVisits)
	}
	if s.LevelsDescended != 2 {
		t.Errorf("LevelsDescended = %d, want 2", s.LevelsDescended)
	}
}

// TestComparisonModelEightLevelTraversal pins the §4 worst case for
// 64-bit keys: 8 trie levels × 2 SIMD comparisons = 16. The workload
// places 17 partial keys (the target's segment plus 16 siblings) on every
// level of the target's path, so each of the 8 nodes holds a full
// two-level 17-ary tree.
func TestComparisonModelEightLevelTraversal(t *testing.T) {
	ix := simdtree.NewSegTrie[uint64, int]()
	target := uint64(0)
	ix.Put(target, -1)
	for level := 0; level < 8; level++ {
		for b := uint64(1); b <= 16; b++ {
			ix.Put(b<<(8*(7-level)), int(b))
		}
	}
	s := countGet(t, ix, target)
	if s.SIMDComparisons != 16 {
		t.Errorf("8-level traversal = %d SIMD comparisons, want 16 (§4)", s.SIMDComparisons)
	}
	if s.NodeVisits != 8 {
		t.Errorf("NodeVisits = %d, want 8", s.NodeVisits)
	}
	if s.LevelsDescended != 16 {
		t.Errorf("LevelsDescended = %d, want 16", s.LevelsDescended)
	}
	if s.MaskEvaluations != 16 {
		t.Errorf("MaskEvaluations = %d, want 16", s.MaskEvaluations)
	}
}

// TestComparisonModelFullNodeHashPath pins the third §4 fast path: a
// completely full node (256 partial keys) is indexed like a hash table —
// zero comparisons of any kind.
func TestComparisonModelFullNodeHashPath(t *testing.T) {
	ix := simdtree.NewSegTrie[uint8, int]()
	for k := uint16(0); k < 256; k++ {
		ix.Put(uint8(k), int(k))
	}
	s := countGet(t, ix, uint8(99))
	if s.SIMDComparisons != 0 || s.ScalarComparisons != 0 {
		t.Errorf("full-node Get = %d SIMD + %d scalar comparisons, want 0 + 0 (§4 hash path)",
			s.SIMDComparisons, s.ScalarComparisons)
	}
	if s.NodeVisits != 1 {
		t.Errorf("NodeVisits = %d, want 1", s.NodeVisits)
	}
}

// TestInstrumentedIndexCountersMatchModel runs the same model workload
// through the NewInstrumentedIndex wrapper: per-op counters divided by
// the op count must reproduce the per-search model figures.
func TestInstrumentedIndexCountersMatchModel(t *testing.T) {
	ix := simdtree.NewInstrumentedIndex[uint64, int](
		simdtree.WithStructure(simdtree.StructureSegTrie))
	target := uint64(0)
	ix.Put(target, -1)
	for level := 0; level < 8; level++ {
		for b := uint64(1); b <= 16; b++ {
			ix.Put(b<<(8*(7-level)), int(b))
		}
	}
	ix.Reset() // drop counts accumulated by the Puts
	const gets = 10
	for i := 0; i < gets; i++ {
		if _, ok := ix.Get(target); !ok {
			t.Fatal("Get missed")
		}
	}
	snap := ix.Snapshot()
	if got := snap.Counters.SIMDComparisons; got != 16*gets {
		t.Errorf("%d Gets = %d SIMD comparisons, want %d", gets, got, 16*gets)
	}
	if got := snap.Counters.NodeVisits; got != 8*gets {
		t.Errorf("%d Gets = %d node visits, want %d", gets, got, 8*gets)
	}
	found := false
	for _, op := range snap.Ops {
		if op.Op == "get" {
			found = true
			if op.Histogram.Count != gets {
				t.Errorf("get histogram count = %d, want %d", op.Histogram.Count, gets)
			}
		}
	}
	if !found {
		t.Fatal("snapshot has no get histogram")
	}
}

func TestOptionsAPI(t *testing.T) {
	// Concrete constructors honour their options.
	st := simdtree.NewSegTree[uint32, int](
		simdtree.WithLayout(simdtree.BreadthFirst),
		simdtree.WithEvaluator(simdtree.SwitchCase),
		simdtree.WithLeafCap(8), simdtree.WithBranchCap(8))
	cfg := st.Config()
	if cfg.Layout != simdtree.BreadthFirst || cfg.Evaluator != simdtree.SwitchCase ||
		cfg.LeafCap != 8 || cfg.BranchCap != 8 {
		t.Errorf("NewSegTree options not applied: %+v", cfg)
	}
	// Zero-option calls apply the paper's defaults: Table 3 node sizing
	// (338 keys for 32-bit keys), depth-first layout, popcount, with
	// narrow-lane nodes.
	want := simdtree.SegTreeConfig{LeafCap: 338, BranchCap: 338, Layout: simdtree.DepthFirst, Evaluator: simdtree.Popcount,
		Lanes: kary.NarrowLanes}
	if got := simdtree.NewSegTree[uint32, int]().Config(); got != want {
		t.Errorf("zero-option NewSegTree config %+v, want default %+v", got, want)
	}
	trie := simdtree.NewSegTrie[uint32, int](simdtree.WithLayout(simdtree.DepthFirst))
	if trie.Config().Layout != simdtree.DepthFirst {
		t.Error("NewSegTrie WithLayout not applied")
	}
	bt := simdtree.NewBPlusTree[uint32, int](simdtree.WithLeafCap(4), simdtree.WithBranchCap(4))
	if c := bt.Config(); c.LeafCap != 4 || c.BranchCap != 4 {
		t.Errorf("NewBPlusTree caps not applied: %+v", c)
	}

	// NewIndex covers every structure and composes wrappers.
	for _, s := range []simdtree.Structure{
		simdtree.StructureSegTree, simdtree.StructureSegTrie,
		simdtree.StructureOptimizedSegTrie, simdtree.StructureBPlusTree,
	} {
		ix := simdtree.NewIndex[uint64, string](simdtree.WithStructure(s))
		ix.Put(7, "x")
		if v, ok := ix.Get(7); !ok || v != "x" {
			t.Errorf("%v NewIndex Get = %q,%v", s, v, ok)
		}
	}
	inst := simdtree.NewInstrumentedIndex[uint64, int](
		simdtree.WithStructure(simdtree.StructureBPlusTree), simdtree.WithShards(4))
	for i := uint64(0); i < 100; i++ {
		inst.Put(i, int(i))
	}
	if inst.Len() != 100 {
		t.Errorf("sharded instrumented Len = %d", inst.Len())
	}
	if _, ok := inst.Unwrap().(*simdtree.ShardedIndex[uint64, int]); !ok {
		t.Fatalf("NewInstrumentedIndex(WithShards(4)) wraps %T, want *ShardedIndex", inst.Unwrap())
	}
	if inst.Histogram(simdtree.OpPut).Count != 100 {
		t.Errorf("put histogram = %d, want 100", inst.Histogram(simdtree.OpPut).Count)
	}
}

func TestOptionsRejectMisuse(t *testing.T) {
	cases := []struct {
		name string
		call func()
	}{
		{"NewSegTree+WithShards", func() {
			simdtree.NewSegTree[uint32, int](simdtree.WithShards(4))
		}},
		{"NewSegTrie+WithLeafCap", func() {
			simdtree.NewSegTrie[uint32, int](simdtree.WithLeafCap(8))
		}},
		{"NewBPlusTree+WithLayout", func() {
			simdtree.NewBPlusTree[uint32, int](simdtree.WithLayout(simdtree.DepthFirst))
		}},
		{"NewOptimizedSegTrie+WithStructure", func() {
			simdtree.NewOptimizedSegTrie[uint32, int](
				simdtree.WithStructure(simdtree.StructureBPlusTree))
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatal("inapplicable option did not panic")
				}
				if msg, ok := r.(string); !ok || !strings.Contains(msg, "simdtree:") {
					t.Errorf("panic %v does not name the misused option", r)
				}
			}()
			c.call()
		})
	}
}

func TestCheckedConstructors(t *testing.T) {
	if _, err := simdtree.BuildKaryTreeChecked([]uint32{3, 1, 2}, simdtree.BreadthFirst); !errors.Is(err, simdtree.ErrUnsorted) {
		t.Errorf("BuildKaryTreeChecked(unsorted) err = %v, want ErrUnsorted", err)
	}
	if kt, err := simdtree.BuildKaryTreeChecked([]uint32{1, 2, 3}, simdtree.BreadthFirst); err != nil || kt.Len() != 3 {
		t.Errorf("BuildKaryTreeChecked(sorted) = %v, %v", kt, err)
	}
	if _, err := simdtree.NewZhouRossListChecked([]uint16{5, 5}); !errors.Is(err, simdtree.ErrUnsorted) {
		t.Errorf("NewZhouRossListChecked(duplicate) err = %v, want ErrUnsorted", err)
	}
	if l, err := simdtree.NewZhouRossListChecked([]uint16{1, 2}); err != nil || l.Len() != 2 {
		t.Errorf("NewZhouRossListChecked(sorted) = %v, %v", l, err)
	}
}
