package segtrie

import (
	"testing"

	"repro/internal/invariants"
	"repro/internal/kary"
)

// White-box corruption tests on the one node type, under both level
// policies.

func TestValidateCatchesChildCountMismatch(t *testing.T) {
	tr := NewDefault[uint64, int]()
	tr.Put(1, 1)
	tr.Put(1<<40, 2)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	tr.root.children = tr.root.children[:len(tr.root.children)-1]
	if err := tr.Validate(); err == nil {
		t.Fatal("child count mismatch accepted")
	}
}

func TestValidateCatchesWrongTrieSize(t *testing.T) {
	tr := NewDefault[uint32, int]()
	tr.Put(5, 5)
	tr.size = 7
	if err := tr.Validate(); err == nil {
		t.Fatal("wrong size accepted")
	}
}

func TestValidateCatchesInnerNodeWithValues(t *testing.T) {
	tr := NewDefault[uint64, int]()
	tr.Put(1, 1)
	tr.root.vals = []int{9}
	if err := tr.Validate(); err == nil {
		t.Fatal("inner node with values accepted")
	}
}

func TestValidateCatchesEmptyInteriorNode(t *testing.T) {
	tr := NewDefault[uint64, int]()
	tr.Put(1, 1)
	// Empty the level-1 node behind the root's back.
	child := tr.root.children[0]
	child.kt = *kary.BuildUnchecked[uint8](nil, tr.cfg.Layout)
	child.children = nil
	if err := tr.Validate(); err == nil {
		t.Fatal("empty interior node accepted")
	}
}

// TestValidateCatchesPlainTriePrefix: the plain trie materializes every
// level, so a prefix on any of its nodes breaks its level policy even
// where the level arithmetic still adds up.
func TestValidateCatchesPlainTriePrefix(t *testing.T) {
	tr := NewDefault[uint16, int]()
	tr.Put(0x0102, 1)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	// Fold the root into its child the way the optimized trie would.
	leaf := tr.root.children[0]
	leaf.prefix = []uint8{0x01}
	tr.root = leaf
	if got, ok := tr.Get(0x0102); !ok || got != 1 {
		t.Fatalf("corrupted trie still reads: got %d, %v", got, ok)
	}
	if err := tr.Validate(); err == nil {
		t.Fatal("plain trie node with a prefix accepted")
	}
}

func TestOptimizedValidateCatchesUncompressedChain(t *testing.T) {
	opt := NewOptimizedDefault[uint64, int]()
	opt.Put(0x0101, 1)
	opt.Put(0x0202, 2)
	if err := opt.Validate(); err != nil {
		t.Fatal(err)
	}
	// An inner node with a single key must have been compressed away;
	// fabricate one.
	bad := &node[int]{kt: *kary.BuildUnchecked([]uint8{1}, opt.cfg.Layout)}
	bad.children = []*node[int]{opt.root.children[0]}
	opt.root.children[0] = bad
	if err := opt.Validate(); err == nil {
		t.Fatal("uncompressed chain accepted")
	}
}

func TestOptimizedValidateCatchesLevelArithmetic(t *testing.T) {
	opt := NewOptimizedDefault[uint64, int]()
	opt.Put(42, 0)
	// Truncate the root prefix: the value node no longer sits at the last
	// level.
	opt.root.prefix = opt.root.prefix[:len(opt.root.prefix)-1]
	if err := opt.Validate(); err == nil {
		t.Fatal("level arithmetic violation accepted")
	}
}

func TestOptimizedValidateCatchesPhantomSize(t *testing.T) {
	opt := NewOptimizedDefault[uint64, int]()
	opt.size = 3
	if err := opt.Validate(); err == nil {
		t.Fatal("phantom size accepted")
	}
}

// TestDeleteIsAllocationFree: Delete keeps its descent path in a stack
// array, so a miss and a hit that unlinks no node allocate nothing in
// either trie. The trie holds keys 0…299 (last-level nodes of 256 and 44
// keys); the timed deletes take keys 100…110 from the full node, which
// keeps its 17-ary geometry (r = 2, m = 15) from 256 down to 241 keys.
func TestDeleteIsAllocationFree(t *testing.T) {
	if invariants.Enabled {
		t.Skip("assertion arguments allocate in -tags=invariants builds")
	}
	for name, tr := range map[string]*Trie[uint64, int]{
		"segtrie": NewDefault[uint64, int](), "opt-segtrie": NewOptimizedDefault[uint64, int](),
	} {
		for k := range uint64(300) {
			tr.Put(k, int(k))
		}
		miss := testing.AllocsPerRun(10, func() { tr.Delete(1 << 40) })
		k := uint64(100)
		hit := testing.AllocsPerRun(10, func() {
			if !tr.Delete(k) {
				t.Fatalf("%s: delete %d missed", name, k)
			}
			k++
		})
		if miss != 0 || hit != 0 {
			t.Errorf("%s: Delete allocates %.1f per miss and %.1f per hit, want 0", name, miss, hit)
		}
		if err := tr.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestScanIsAllocationFree: a scan walks each node's partial keys in
// place, so a 1,000-key Scan over 2^20 dense keys allocates nothing in
// either trie.
func TestScanIsAllocationFree(t *testing.T) {
	if invariants.Enabled {
		t.Skip("assertion arguments allocate in -tags=invariants builds")
	}
	for name, tr := range map[string]*Trie[uint32, int]{
		"segtrie": NewDefault[uint32, int](), "opt-segtrie": NewOptimizedDefault[uint32, int](),
	} {
		for k := range uint32(1 << 20) {
			tr.Put(k, int(k))
		}
		n := 0
		fn := func(uint32, int) bool { n++; return true }
		allocs := testing.AllocsPerRun(10, func() {
			n = 0
			tr.Scan(300_000, 300_999, fn)
		})
		if n != 1000 || allocs != 0 {
			t.Errorf("%s: Scan visited %d keys with %.1f allocations, want 1000 and 0", name, n, allocs)
		}
	}
}
