package segtrie

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/bitmask"
	"repro/internal/btree"
	"repro/internal/kary"
	"repro/internal/keys"
)

func cfgs() []Config {
	return []Config{
		{Layout: kary.BreadthFirst, Evaluator: bitmask.Popcount},
		{Layout: kary.DepthFirst, Evaluator: bitmask.BitShift},
		{Layout: kary.BreadthFirst, Evaluator: bitmask.SwitchCase},
	}
}

func TestEmptyTrie(t *testing.T) {
	tr := NewDefault[uint64, int]()
	if tr.Len() != 0 || tr.Levels() != 8 {
		t.Fatalf("len=%d levels=%d", tr.Len(), tr.Levels())
	}
	if _, ok := tr.Get(0); ok {
		t.Fatal("Get on empty")
	}
	if tr.Delete(0) {
		t.Fatal("Delete on empty")
	}
	if _, _, ok := tr.Min(); ok {
		t.Fatal("Min on empty")
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestLevelsPerWidth(t *testing.T) {
	if NewDefault[uint8, int]().Levels() != 1 {
		t.Fatal("8-bit levels")
	}
	if NewDefault[uint16, int]().Levels() != 2 {
		t.Fatal("16-bit levels")
	}
	if NewDefault[uint32, int]().Levels() != 4 {
		t.Fatal("32-bit levels")
	}
	if NewDefault[uint64, int]().Levels() != 8 {
		t.Fatal("64-bit levels")
	}
}

// TestFigure8Scenario stores two 64-bit keys like the paper's Figure 8 and
// checks the path structure: levels with common segments hold one partial
// key, diverged levels hold two.
func TestFigure8Scenario(t *testing.T) {
	tr := NewDefault[uint64, string]()
	// Two keys sharing the top four segments.
	k1 := uint64(0x1122334455667788)
	k2 := uint64(0x11223344AABBCCDD)
	tr.Put(k1, "S")
	tr.Put(k2, "K")
	if v, ok := tr.Get(k1); !ok || v != "S" {
		t.Fatal("k1 lookup")
	}
	if v, ok := tr.Get(k2); !ok || v != "K" {
		t.Fatal("k2 lookup")
	}
	if _, ok := tr.Get(0x1122334455667789); ok {
		t.Fatal("phantom key")
	}
	rep := tr.Shape()
	// One node on each of the four shared levels, one node holding both
	// diverged partial keys at level 4, then two parallel paths below.
	for lvl, want := range []int{1, 1, 1, 1, 1, 2, 2, 2} {
		if rep.LevelFill[lvl].Nodes != want {
			t.Fatalf("level %d: %d nodes, want %d (%v)", lvl, rep.LevelFill[lvl].Nodes, want, rep.LevelFill)
		}
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestEarlyTermination: a missing partial key on an upper level must
// terminate the search (no panic, not found) — the trie's advantage over
// trees (§4).
func TestEarlyTermination(t *testing.T) {
	tr := NewDefault[uint64, int]()
	tr.Put(0x0100000000000000, 1)
	if _, ok := tr.Get(0x0200000000000000); ok {
		t.Fatal("found key diverging at root")
	}
}

func TestPutGetDeleteAllWidths(t *testing.T) {
	testWidth[uint8](t, 300)
	testWidth[uint16](t, 3000)
	testWidth[uint32](t, 3000)
	testWidth[uint64](t, 3000)
	testWidth[int8](t, 300)
	testWidth[int16](t, 3000)
	testWidth[int32](t, 3000)
	testWidth[int64](t, 3000)
}

func testWidth[K keys.Key](t *testing.T, nops int) {
	t.Helper()
	for _, cfg := range cfgs() {
		rng := rand.New(rand.NewSource(61))
		tr := New[K, int](cfg)
		opt := NewOptimized[K, int](cfg)
		ref := map[K]int{}
		for op := 0; op < nops; op++ {
			k := K(rng.Uint64())
			switch rng.Intn(4) {
			case 0, 1:
				v := rng.Intn(1 << 20)
				_, existed := ref[k]
				if tr.Put(k, v) != !existed {
					t.Fatalf("trie put %v", k)
				}
				if opt.Put(k, v) != !existed {
					t.Fatalf("optimized put %v", k)
				}
				ref[k] = v
			case 2:
				_, existed := ref[k]
				if tr.Delete(k) != existed {
					t.Fatalf("trie delete %v", k)
				}
				if opt.Delete(k) != existed {
					t.Fatalf("optimized delete %v", k)
				}
				delete(ref, k)
			default:
				want, existed := ref[k]
				gv, gok := tr.Get(k)
				ov, ook := opt.Get(k)
				if gok != existed || ook != existed || (existed && (gv != want || ov != want)) {
					t.Fatalf("get %v: trie(%v,%v) opt(%v,%v) want (%v,%v)", k, gv, gok, ov, ook, want, existed)
				}
			}
		}
		if tr.Len() != len(ref) || opt.Len() != len(ref) {
			t.Fatalf("len %d/%d want %d", tr.Len(), opt.Len(), len(ref))
		}
		if err := tr.Validate(); err != nil {
			t.Fatal(err)
		}
		if err := opt.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestAscendOrdered(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	tr := NewDefault[int32, int]()
	opt := NewOptimizedDefault[int32, int]()
	want := map[int32]bool{}
	for i := 0; i < 4000; i++ {
		k := int32(rng.Uint64())
		tr.Put(k, int(k))
		opt.Put(k, int(k))
		want[k] = true
	}
	sorted := make([]int32, 0, len(want))
	for k := range want {
		sorted = append(sorted, k)
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	check := func(name string, ascend func(func(int32, int) bool)) {
		i := 0
		ascend(func(k int32, v int) bool {
			if i >= len(sorted) || k != sorted[i] || v != int(k) {
				t.Fatalf("%s: index %d got %d", name, i, k)
			}
			i++
			return true
		})
		if i != len(sorted) {
			t.Fatalf("%s: emitted %d of %d", name, i, len(sorted))
		}
	}
	check("trie", tr.Ascend)
	check("optimized", opt.Ascend)
}

func TestMinMax(t *testing.T) {
	tr := NewDefault[int16, int]()
	opt := NewOptimizedDefault[int16, int]()
	ks := []int16{512, -3, 77, -32768, 32767, 0}
	for i, k := range ks {
		tr.Put(k, i)
		opt.Put(k, i)
	}
	if k, _, ok := tr.Min(); !ok || k != -32768 {
		t.Fatalf("trie min %d", k)
	}
	if k, _, ok := tr.Max(); !ok || k != 32767 {
		t.Fatalf("trie max %d", k)
	}
	if k, _, ok := opt.Min(); !ok || k != -32768 {
		t.Fatalf("opt min %d", k)
	}
	if k, _, ok := opt.Max(); !ok || k != 32767 {
		t.Fatalf("opt max %d", k)
	}
}

func TestScan(t *testing.T) {
	tr := NewDefault[uint32, uint32]()
	opt := NewOptimizedDefault[uint32, uint32]()
	for i := uint32(0); i < 3000; i += 3 {
		tr.Put(i, i)
		opt.Put(i, i)
	}
	check := func(name string, scan func(lo, hi uint32, fn func(uint32, uint32) bool)) {
		var got []uint32
		scan(100, 200, func(k, v uint32) bool {
			if k != v {
				t.Fatalf("%s: value mismatch", name)
			}
			got = append(got, k)
			return true
		})
		// Multiples of 3 in [100,200]: 102..198 → 33 keys.
		if len(got) != 33 || got[0] != 102 || got[32] != 198 {
			t.Fatalf("%s: scan got %d keys (%v…)", name, len(got), got[0])
		}
		count := 0
		scan(0, 2997, func(_, _ uint32) bool { count++; return count < 5 })
		if count != 5 {
			t.Fatalf("%s: early stop %d", name, count)
		}
		scan(10, 5, func(_, _ uint32) bool { t.Fatalf("%s: inverted range", name); return false })
	}
	check("trie", tr.Scan)
	check("optimized", opt.Scan)
}

// scanKeys collects the keys Scan reports for [lo, hi].
func scanKeys[K uint16 | uint64](scan func(K, K, func(K, int) bool), lo, hi K) []K {
	var got []K
	scan(lo, hi, func(k K, _ int) bool { got = append(got, k); return true })
	return got
}

func TestTrieScanEdgeCases(t *testing.T) {
	tr := NewDefault[uint16, int]()
	opt := NewOptimizedDefault[uint16, int]()
	for name, scan := range map[string]func(uint16, uint16, func(uint16, int) bool){
		"empty trie": tr.Scan, "empty optimized": opt.Scan,
	} {
		if got := scanKeys(scan, 0, 65535); got != nil {
			t.Fatalf("%s: scan emitted %v", name, got)
		}
	}
	for _, k := range []uint16{10, 20, 30, 1000, 65535} {
		tr.Put(k, int(k))
		opt.Put(k, int(k))
	}
	for name, scan := range map[string]func(uint16, uint16, func(uint16, int) bool){
		"trie": tr.Scan, "optimized": opt.Scan,
	} {
		if got := scanKeys(scan, 0, 5); got != nil {
			t.Fatalf("%s: below-range scan emitted %v", name, got)
		}
		if got := scanKeys(scan, 65535, 65535); len(got) != 1 || got[0] != 65535 {
			t.Fatalf("%s: max-key scan = %v", name, got)
		}
	}
}

// TestOptimizedScanSeekIntoCompressedPrefix starts scans inside and
// between stored prefixes, where the bounds diverge from a node's
// omitted levels rather than from its partial keys.
func TestOptimizedScanSeekIntoCompressedPrefix(t *testing.T) {
	opt := NewOptimizedDefault[uint64, int]()
	ks := []uint64{0x0101010101010101, 0x0101010101010102, 0x0202020202020201}
	for i, k := range ks {
		opt.Put(k, i)
	}
	// lo inside the first prefix, below its keys; hi on its first key.
	if got := scanKeys(opt.Scan, 0x0101000000000000, 0x0101010101010101); len(got) != 1 || got[0] != ks[0] {
		t.Fatalf("seek into prefix = %x", got)
	}
	// lo between the two subtrees.
	if got := scanKeys(opt.Scan, 0x0101010101010103, ^uint64(0)); len(got) != 1 || got[0] != ks[2] {
		t.Fatalf("seek between subtrees = %x", got)
	}
}

// TestConsecutiveTupleIDs is the paper's flagship workload: consecutive
// keys starting at zero. 0…255 must fit in a single value node; the plain
// trie keeps the 7 single-key chain levels, the optimized trie omits them.
func TestConsecutiveTupleIDs(t *testing.T) {
	tr := NewDefault[uint64, int]()
	opt := NewOptimizedDefault[uint64, int]()
	for i := 0; i < 256; i++ {
		tr.Put(uint64(i), i)
		opt.Put(uint64(i), i)
	}
	rep := tr.Shape()
	if rep.Nodes != 8 {
		t.Fatalf("plain trie nodes: %d want 8", rep.Nodes)
	}
	// Seven single-key chain levels above one filled level.
	for lvl, lf := range rep.LevelFill[:7] {
		if lf.Nodes != 1 || lf.Keys != 1 {
			t.Fatalf("plain trie level %d: %+v, want one single-key node", lvl, lf)
		}
	}
	orep := opt.Shape()
	if orep.Nodes != 1 {
		t.Fatalf("optimized nodes: %d want 1", orep.Nodes)
	}
	if orep.Levels != 1 {
		t.Fatalf("optimized height: %d want 1", orep.Levels)
	}
	if orep.OmittedLevels != 7 {
		t.Fatalf("omitted levels: %d want 7", orep.OmittedLevels)
	}
	// §4: inserting 256 adds one level.
	opt.Put(256, 256)
	if h := opt.IndexStats().Height; h != 2 {
		t.Fatalf("after 256: height %d want 2", h)
	}
	for i := 0; i <= 256; i++ {
		if v, ok := opt.Get(uint64(i)); !ok || v != i {
			t.Fatalf("after growth: key %d", i)
		}
	}
	if err := opt.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestKeyMemoryReduction checks the paper's 8× memory claim: the trie
// replaces 8-byte keys with 1-byte partial keys, so its key storage must be
// several times smaller than the B+-Tree's (value pointers are identical in
// both structures and excluded, as in the paper's accounting).
func TestKeyMemoryReduction(t *testing.T) {
	tr := NewDefault[uint64, int]()
	opt := NewOptimizedDefault[uint64, int]()
	n := 1 << 14
	ks := make([]uint64, n)
	vs := make([]int, n)
	for i := 0; i < n; i++ {
		ks[i] = uint64(i)
		vs[i] = i
		tr.Put(uint64(i), i)
		opt.Put(uint64(i), i)
	}
	base := btree.BulkLoad[uint64, int](btree.DefaultConfig[uint64](), ks, vs)
	bm := base.IndexStats().KeyMemoryBytes
	tm := tr.IndexStats().KeyMemoryBytes
	om := opt.IndexStats().KeyMemoryBytes
	if float64(bm)/float64(om) < 6 {
		t.Fatalf("optimized trie key memory %d vs B+-Tree %d: reduction below 6x", om, bm)
	}
	if float64(bm)/float64(tm) < 6 {
		t.Fatalf("plain trie key memory %d vs B+-Tree %d: reduction below 6x", tm, bm)
	}
	if om > tm {
		t.Fatalf("optimized trie uses more key memory (%d) than plain (%d)", om, tm)
	}
}

func TestFullNodeFastPath(t *testing.T) {
	// A full 256-key node must be indexed directly; behaviour must match
	// the searched path exactly.
	tr := NewDefault[uint16, int]()
	for i := 0; i < 65536; i += 256 { // fills the root completely
		tr.Put(uint16(i), i)
	}
	if root := tr.Shape().LevelFill[0]; root.Nodes != 1 || root.Keys != 256 {
		t.Fatalf("root level %+v", root)
	}
	for i := 0; i < 65536; i += 256 {
		if v, ok := tr.Get(uint16(i)); !ok || v != i {
			t.Fatalf("key %d", i)
		}
	}
	if _, ok := tr.Get(uint16(3)); ok {
		t.Fatal("phantom")
	}
}

func TestDeleteUnlinksEmptyNodes(t *testing.T) {
	tr := NewDefault[uint64, int]()
	tr.Put(1, 1)
	tr.Put(1<<56, 2)
	if !tr.Delete(1 << 56) {
		t.Fatal("delete failed")
	}
	if n := tr.IndexStats().Nodes; n != 8 {
		t.Fatalf("nodes after unlink: %d want 8", n)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if !tr.Delete(1) || tr.Len() != 0 {
		t.Fatal("delete last")
	}
}

func TestOptimizedCompressionAfterDelete(t *testing.T) {
	opt := NewOptimizedDefault[uint64, int]()
	opt.Put(0x01, 1)
	opt.Put(0x0100, 2)
	opt.Put(0x010000, 3)
	if err := opt.Validate(); err != nil {
		t.Fatal(err)
	}
	if !opt.Delete(0x0100) || !opt.Delete(0x010000) {
		t.Fatal("deletes failed")
	}
	if err := opt.Validate(); err != nil {
		t.Fatal(err)
	}
	if v, ok := opt.Get(0x01); !ok || v != 1 {
		t.Fatal("survivor lookup")
	}
	if n := opt.IndexStats().Nodes; n != 1 {
		t.Fatalf("nodes after compression: %d want 1", n)
	}
}

func TestQuickDifferential(t *testing.T) {
	f := func(ops []uint16, dels []uint16) bool {
		tr := NewDefault[uint16, int]()
		opt := NewOptimizedDefault[uint16, int]()
		ref := map[uint16]int{}
		for i, k := range ops {
			tr.Put(k, i)
			opt.Put(k, i)
			ref[k] = i
		}
		for _, k := range dels {
			_, existed := ref[k]
			if tr.Delete(k) != existed || opt.Delete(k) != existed {
				return false
			}
			delete(ref, k)
		}
		if tr.Len() != len(ref) || opt.Len() != len(ref) {
			return false
		}
		if tr.Validate() != nil || opt.Validate() != nil {
			return false
		}
		for k, v := range ref {
			tv, tok := tr.Get(k)
			ov, ook := opt.Get(k)
			if !tok || !ook || tv != v || ov != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 600}); err != nil {
		t.Fatal(err)
	}
}
