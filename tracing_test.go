package simdtree_test

// Tests pinning the per-operation tracing surface to the paper's §4
// comparison model: a (partially) full 17-ary trie node costs exactly 2
// SIMD comparisons, a full 64-bit descent over 17-ary nodes 8·2 = 16,
// and a fully occupied 256-key node zero (direct indexing fast path).

import (
	"strings"
	"testing"
	"time"

	simdtree "repro"
)

// TestExplainTrieNodeTwoCompares pins §4: a trie node holding 17 partial
// keys is a two-level 17-ary search tree, resolved with exactly 2 SIMD
// comparisons.
func TestExplainTrieNodeTwoCompares(t *testing.T) {
	trie := simdtree.NewSegTrie[uint16, int]()
	// Level 0 gets partial keys {0..16}; every level-1 node is single-key.
	for b := 0; b <= 16; b++ {
		trie.Put(uint16(b)<<8|1, b)
	}
	tr := simdtree.Explain[uint16, int](trie, 1<<8|1)
	if !tr.Found {
		t.Fatalf("Explain missed a present key:\n%s", tr)
	}
	// 2 SIMD compares resolve level 0; level 1 is a single-key fast path.
	if got := tr.SIMDComparisons(); got != 2 {
		t.Fatalf("17-key trie node: %d SIMD comparisons, want 2 (§4)\n%s", got, tr)
	}
	if got := tr.NodeVisits(); got != 2 {
		t.Fatalf("NodeVisits = %d, want 2\n%s", got, tr)
	}
	if got := tr.ScalarComparisons(); got != 1 {
		t.Fatalf("ScalarComparisons = %d, want 1 (single-key leaf)\n%s", got, tr)
	}
}

// TestExplainFullDescentSixteenCompares pins the §4 model end to end: a
// 64-bit key descends 8 trie levels; with every node on the path holding
// 17 partial keys each level costs 2 SIMD comparisons — 16 total.
func TestExplainFullDescentSixteenCompares(t *testing.T) {
	trie := simdtree.NewSegTrie[uint64, int]()
	trie.Put(0, -1)
	// At each level l, add 16 siblings diverging there, so the node on the
	// all-zero path holds partial keys {0, 1..16} = 17.
	for l := 0; l < 8; l++ {
		for b := uint64(1); b <= 16; b++ {
			trie.Put(b<<(8*(7-l)), int(b))
		}
	}
	tr := simdtree.Explain[uint64, int](trie, 0)
	if !tr.Found {
		t.Fatalf("Explain missed key 0:\n%s", tr)
	}
	if got := tr.NodeVisits(); got != 8 {
		t.Fatalf("NodeVisits = %d, want 8 levels\n%s", got, tr)
	}
	if got := tr.SIMDComparisons(); got != 16 {
		t.Fatalf("8-level descent: %d SIMD comparisons, want 16 (§4)\n%s", got, tr)
	}
	// One segment step per level.
	segs := 0
	for _, s := range tr.Steps {
		if s.Kind == simdtree.TraceSegment {
			segs++
		}
	}
	if segs != 8 {
		t.Fatalf("segment steps = %d, want 8\n%s", segs, tr)
	}
}

// TestExplainFullNodeZeroCompares pins the §4 full-node fast path: a
// node holding all 256 partial keys is indexed directly, with zero
// comparisons of any kind.
func TestExplainFullNodeZeroCompares(t *testing.T) {
	trie := simdtree.NewSegTrie[uint16, int]()
	for b := 0; b < 256; b++ {
		trie.Put(uint16(b)<<8|1, b)
	}
	tr := simdtree.Explain[uint16, int](trie, 200<<8|1)
	if !tr.Found {
		t.Fatalf("Explain missed a present key:\n%s", tr)
	}
	if got := tr.SIMDComparisons(); got != 0 {
		t.Fatalf("full 256-key node: %d SIMD comparisons, want 0 (§4)\n%s", got, tr)
	}
	if !strings.Contains(tr.String(), "full-node") {
		t.Fatalf("trace missing full-node fast path:\n%s", tr)
	}
}

// TestExplainOptimizedTriePrefixSkip checks the optimized trie's
// compressed-prefix steps appear in traces: consecutive small keys
// collapse the upper levels into a prefix compared bytewise.
func TestExplainOptimizedTriePrefixSkip(t *testing.T) {
	trie := simdtree.NewOptimizedSegTrie[uint64, string]()
	for i := uint64(0); i < 100; i++ {
		trie.Put(i, "v")
	}
	tr := simdtree.Explain[uint64, string](trie, 42)
	if !tr.Found {
		t.Fatalf("Explain missed key 42:\n%s", tr)
	}
	skips := 0
	for _, s := range tr.Steps {
		if s.Kind == simdtree.TracePrefixSkip {
			skips++
			if s.Note != "prefix-matched" {
				t.Fatalf("prefix step note %q\n%s", s.Note, tr)
			}
		}
	}
	if skips == 0 {
		t.Fatalf("no prefix-skip steps on consecutive-key optimized trie:\n%s", tr)
	}
	// A prefix mismatch ends the search visibly.
	miss := simdtree.Explain[uint64, string](trie, 1<<40)
	if miss.Found {
		t.Fatal("Explain hit an absent key")
	}
	if !strings.Contains(miss.String(), "prefix-mismatch") {
		t.Fatalf("miss trace lacks prefix-mismatch:\n%s", miss)
	}
}

// TestExplainSegTreeRendersDescent checks Explain on a Seg-Tree and the
// String rendering carry the load/mask/position evidence of Algorithm 5.
func TestExplainSegTreeRendersDescent(t *testing.T) {
	tree := simdtree.NewSegTree[uint64, int]()
	for i := uint64(0); i < 5000; i++ {
		tree.Put(i*2, int(i))
	}
	tr := simdtree.Explain[uint64, int](tree, 2468)
	if !tr.Found {
		t.Fatalf("Explain missed a present key:\n%s", tr)
	}
	s := tr.String()
	for _, want := range []string{"structure=segtree", "hit", "node:", "load", "mask=0x", "branch -> child"} {
		if !strings.Contains(s, want) {
			t.Fatalf("rendering missing %q:\n%s", want, s)
		}
	}
	if tr.SIMDComparisons() == 0 || tr.NodeVisits() < 2 {
		t.Fatalf("descent not recorded: simd=%d nodes=%d", tr.SIMDComparisons(), tr.NodeVisits())
	}
}

// TestInstrumentedSampling checks the facade wiring of always-on sampled
// tracing: rate 1 records every Get, the slow log obeys its threshold,
// and Explain works through the wrapper.
func TestInstrumentedSampling(t *testing.T) {
	ix := simdtree.NewInstrumentedIndex[uint64, string](
		simdtree.WithStructure(simdtree.StructureSegTree))
	for i := uint64(0); i < 1000; i++ {
		ix.Put(i, "v")
	}
	if ix.Sampler() != nil {
		t.Fatal("sampler attached before EnableSampling")
	}
	sp := ix.EnableSampling(1, 0)
	for i := uint64(0); i < 10; i++ {
		ix.Get(i)
	}
	st := sp.Stats()
	if st.Ops != 10 || st.Sampled != 10 {
		t.Fatalf("rate-1 stats = %+v, want 10/10", st)
	}
	traces := sp.Sampled()
	if len(traces) != 10 {
		t.Fatalf("Sampled len = %d", len(traces))
	}
	for _, tr := range traces {
		if tr.Structure != "segtree" || !tr.Found || tr.Duration <= 0 || len(tr.Steps) == 0 {
			t.Fatalf("malformed sampled trace: %+v", tr)
		}
	}
	// An impossible threshold keeps the slow log empty; a zero threshold
	// disables it outright.
	if len(sp.SlowOps()) != 0 {
		t.Fatal("slow log populated with threshold disabled")
	}
	sp.SetSlowThreshold(time.Nanosecond)
	ix.Get(1)
	if len(sp.SlowOps()) == 0 {
		t.Fatal("1ns threshold caught nothing")
	}
	// Rate 0 turns sampling off but keeps Explain working.
	sp.SetRate(0)
	before := sp.Stats().Sampled
	ix.Get(2)
	if sp.Stats().Sampled != before {
		t.Fatal("rate 0 still sampled")
	}
	if tr := simdtree.Explain(ix, 3); !tr.Found || tr.Structure != "segtree" {
		t.Fatalf("Explain through wrapper: %+v", tr)
	}
}
