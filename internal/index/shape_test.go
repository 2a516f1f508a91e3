package index_test

// Structural-introspection conformance: the cross-implementation
// invariants every Shape() must satisfy, plus golden scenarios whose
// shape the paper fixes exactly — a 17-key trie node (§4: first size
// needing a second k-ary level), a full 256-key node (the §4 fast-path
// shape: every register full), an 8-level dense trie against its
// optimized form (§4 level omission), and a replenished Seg-Tree leaf
// (§3.3: S_max pads visible as padding bytes and a non-full register).

import (
	"math"
	"testing"

	"repro/internal/bitmask"
	"repro/internal/index"
	"repro/internal/kary"
	"repro/internal/segtree"
	"repro/internal/segtrie"
	"repro/internal/shape"
)

// verifyShape checks the implementation-independent invariants of a
// report against the index that produced it.
func verifyShape(t *testing.T, ix index.Index[uint32, int]) {
	t.Helper()
	rep := ix.Shape()
	st := ix.IndexStats()
	if rep.Keys != ix.Len() {
		t.Errorf("Shape.Keys = %d, want Len %d", rep.Keys, ix.Len())
	}
	if rep.TotalBytes != st.MemoryBytes {
		t.Errorf("Shape.TotalBytes = %d, want IndexStats().MemoryBytes %d",
			rep.TotalBytes, st.MemoryBytes)
	}
	if rep.TotalBytes != rep.KeyBytes+rep.PointerBytes+rep.PaddingBytes {
		t.Errorf("TotalBytes %d != key %d + pointer %d + padding %d",
			rep.TotalBytes, rep.KeyBytes, rep.PointerBytes, rep.PaddingBytes)
	}
	if rep.FillDegree < 0 || rep.FillDegree > 1 {
		t.Errorf("FillDegree = %v outside [0,1]", rep.FillDegree)
	}
	if rep.RegisterUtilization < 0 || rep.RegisterUtilization > 1 {
		t.Errorf("RegisterUtilization = %v outside [0,1]", rep.RegisterUtilization)
	}
	if rep.FullRegisters > rep.Registers {
		t.Errorf("FullRegisters %d > Registers %d", rep.FullRegisters, rep.Registers)
	}
	if rep.SlotKeys > rep.Slots {
		t.Errorf("SlotKeys %d > Slots %d", rep.SlotKeys, rep.Slots)
	}
	histo := 0
	for _, c := range rep.FillHistogram {
		histo += c
	}
	if histo != rep.Nodes {
		t.Errorf("histogram sums to %d nodes, report has %d", histo, rep.Nodes)
	}
	lvlNodes, lvlKeys, lvlSlots := 0, 0, 0
	for _, lf := range rep.LevelFill {
		lvlNodes += lf.Nodes
		lvlKeys += lf.Keys
		lvlSlots += lf.Slots
	}
	if lvlNodes != rep.Nodes || lvlKeys != rep.SlotKeys || lvlSlots != rep.Slots {
		t.Errorf("LevelFill totals (%d,%d,%d) != report (%d,%d,%d)",
			lvlNodes, lvlKeys, lvlSlots, rep.Nodes, rep.SlotKeys, rep.Slots)
	}
	if rep.Keys > 0 && rep.BytesPerKey != float64(rep.TotalBytes)/float64(rep.Keys) {
		t.Errorf("BytesPerKey = %v, want %v", rep.BytesPerKey,
			float64(rep.TotalBytes)/float64(rep.Keys))
	}
}

func putDense[K interface{ ~uint8 | ~uint64 }, I interface {
	Put(K, int) bool
}](ix I, n int) {
	for i := 0; i < n; i++ {
		ix.Put(K(i), i)
	}
}

// A 17-key last-level trie node: the first node size whose 17-ary tree
// needs two levels, so its root register carries one real key and
// fifteen §3.3 pads — register utilization drops to exactly 1/2.
func TestGoldenShapeSeventeenKeyTrieNode(t *testing.T) {
	tr := segtrie.NewDefault[uint8, int]()
	putDense[uint8](tr, 17)
	rep := tr.Shape()
	if rep.Keys != 17 || rep.Levels != 1 || rep.Nodes != 1 {
		t.Fatalf("keys/levels/nodes = %d/%d/%d, want 17/1/1", rep.Keys, rep.Levels, rep.Nodes)
	}
	if rep.Registers != 2 || rep.FullRegisters != 1 {
		t.Errorf("registers = %d full of %d, want 1 of 2", rep.FullRegisters, rep.Registers)
	}
	if rep.RegisterUtilization != 0.5 {
		t.Errorf("RegisterUtilization = %v, want 0.5", rep.RegisterUtilization)
	}
	if rep.ReplenishedSlots != 15 {
		t.Errorf("ReplenishedSlots = %d, want 15", rep.ReplenishedSlots)
	}
	if got, want := rep.FillDegree, 17.0/32.0; got != want {
		t.Errorf("FillDegree = %v, want %v", got, want)
	}
	// 17 partial-key bytes + 15 pad bytes + 17 value pointers.
	if rep.KeyBytes != 17 || rep.PaddingBytes != 15 || rep.PointerBytes != 17*8 {
		t.Errorf("bytes = key %d / padding %d / pointer %d, want 17/15/136",
			rep.KeyBytes, rep.PaddingBytes, rep.PointerBytes)
	}
}

// A completely full 256-key node — the §4 hash-table fast path shape:
// sixteen registers, all fully populated, register utilization exactly
// 1.0 (the ISSUE's quantitative pin).
func TestGoldenShapeFull256Node(t *testing.T) {
	tr := segtrie.NewDefault[uint8, int]()
	putDense[uint8](tr, 256)
	rep := tr.Shape()
	if rep.Keys != 256 || rep.Levels != 1 || rep.Nodes != 1 {
		t.Fatalf("keys/levels/nodes = %d/%d/%d, want 256/1/1", rep.Keys, rep.Levels, rep.Nodes)
	}
	if rep.Registers != 16 || rep.FullRegisters != 16 {
		t.Errorf("registers = %d full of %d, want 16 of 16", rep.FullRegisters, rep.Registers)
	}
	if rep.RegisterUtilization != 1.0 {
		t.Errorf("RegisterUtilization = %v, want 1.0", rep.RegisterUtilization)
	}
	if rep.FillDegree != 1.0 || rep.ReplenishedSlots != 0 || rep.PaddingBytes != 0 {
		t.Errorf("full node reports waste: fill=%v replenished=%d padding=%d",
			rep.FillDegree, rep.ReplenishedSlots, rep.PaddingBytes)
	}
}

// An 8-level dense trie over uint64: the plain Seg-Trie materializes six
// single-key chain levels above the two distinguishing ones; the
// optimized Seg-Trie compresses the chain into a six-byte root prefix —
// six omitted levels with the measured byte saving (the ISSUE's second
// quantitative pin).
func TestGoldenShapeEightLevelDenseTrie(t *testing.T) {
	plain := segtrie.NewDefault[uint64, int]()
	putDense[uint64](plain, 512)
	rep := plain.Shape()
	if rep.Levels != 8 {
		t.Fatalf("plain trie levels = %d, want 8", rep.Levels)
	}
	// Levels 0–5: one single-key node each; level 6: one 2-key node;
	// level 7: two full 256-key nodes.
	if rep.Nodes != 9 {
		t.Errorf("plain trie nodes = %d, want 9", rep.Nodes)
	}
	for lvl := 0; lvl <= 5; lvl++ {
		if lf := rep.LevelFill[lvl]; lf.Nodes != 1 || lf.Keys != 1 {
			t.Errorf("plain level %d = %+v, want 1 single-key node", lvl, lf)
		}
	}
	if lf := rep.LevelFill[7]; lf.Nodes != 2 || lf.Keys != 512 || lf.Fill != 1.0 {
		t.Errorf("plain leaf level = %+v, want 2 full nodes", lf)
	}
	if rep.OmittedLevels != 0 {
		t.Errorf("plain trie reports %d omitted levels", rep.OmittedLevels)
	}

	opt := segtrie.NewOptimizedDefault[uint64, int]()
	putDense[uint64](opt, 512)
	orep := opt.Shape()
	if orep.Levels != 2 || orep.Nodes != 3 {
		t.Fatalf("optimized levels/nodes = %d/%d, want 2/3", orep.Levels, orep.Nodes)
	}
	if orep.OmittedLevels != 6 || orep.PrefixBytes != 6 {
		t.Errorf("omitted levels/prefix bytes = %d/%d, want 6/6",
			orep.OmittedLevels, orep.PrefixBytes)
	}
	// Each omitted level saves a 16-slot single-key node (16 B) plus a
	// child pointer (8 B) minus the one stored prefix byte: 23 B.
	if orep.OmittedSavingsBytes != 6*23 {
		t.Errorf("OmittedSavingsBytes = %d, want 138", orep.OmittedSavingsBytes)
	}
	if orep.OmittedSavingsBytes <= 0 {
		t.Errorf("dense optimized trie must report positive omitted-level savings")
	}
	// Root: 2-key register (not full); leaves: two full 256-key nodes.
	if orep.Registers != 33 || orep.FullRegisters != 32 {
		t.Errorf("registers = %d full of %d, want 32 of 33", orep.FullRegisters, orep.Registers)
	}
	if got, want := orep.RegisterUtilization, 32.0/33.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("RegisterUtilization = %v, want %v", got, want)
	}
	// The measured footprint advantage over the plain trie must be at
	// least the accounted per-level saving.
	if rep.TotalBytes-orep.TotalBytes < orep.OmittedSavingsBytes {
		t.Errorf("plain−optimized footprint = %d B, accounted savings %d B",
			rep.TotalBytes-orep.TotalBytes, orep.OmittedSavingsBytes)
	}
}

// A half-full Seg-Tree leaf after §3.3 replenishment: seven 64-bit keys
// build a two-level ternary k-ary tree storing eight slots — one S_max
// pad lands in the last register, which therefore does not count as
// full.
func TestGoldenShapeReplenishedSegTreeLeaf(t *testing.T) {
	st := segtree.New[uint64, int](segtree.Config{
		LeafCap: 16, BranchCap: 16,
		Layout: kary.BreadthFirst, Evaluator: bitmask.Popcount,
	})
	putDense[uint64](st, 7)
	rep := st.Shape()
	if rep.Keys != 7 || rep.Levels != 1 || rep.Nodes != 1 {
		t.Fatalf("keys/levels/nodes = %d/%d/%d, want 7/1/1", rep.Keys, rep.Levels, rep.Nodes)
	}
	if rep.ReplenishedSlots != 1 {
		t.Errorf("ReplenishedSlots = %d, want 1 (8 stored − 7 real)", rep.ReplenishedSlots)
	}
	if got, want := rep.FillDegree, 7.0/8.0; got != want {
		t.Errorf("FillDegree = %v, want %v", got, want)
	}
	if rep.Registers != 4 || rep.FullRegisters != 3 {
		t.Errorf("registers = %d full of %d, want 3 of 4", rep.FullRegisters, rep.Registers)
	}
	if rep.RegisterUtilization != 0.75 {
		t.Errorf("RegisterUtilization = %v, want 0.75", rep.RegisterUtilization)
	}
	// 7 keys × 8 B + 1 pad × 8 B + 7 value pointers × 8 B.
	if rep.KeyBytes != 56 || rep.PaddingBytes != 8 || rep.PointerBytes != 56 {
		t.Errorf("bytes = key %d / padding %d / pointer %d, want 56/8/56",
			rep.KeyBytes, rep.PaddingBytes, rep.PointerBytes)
	}
}

// The sharded merge: shard reports sum into one composite whose keys,
// bytes and registers match the sum of the parts.
func TestShardedShapeMerge(t *testing.T) {
	s := index.NewSharded[uint32, int](4, func() index.Index[uint32, int] {
		return segtrie.NewOptimizedDefault[uint32, int]()
	})
	for i := 0; i < 1000; i++ {
		s.Put(uint32(i)*4_294_967, i) // spread across the key space
	}
	rep := s.Shape()
	if rep.Structure != "sharded/opt-segtrie" {
		t.Errorf("Structure = %q, want sharded/opt-segtrie", rep.Structure)
	}
	if rep.Shards != 4 {
		t.Errorf("Shards = %d, want 4", rep.Shards)
	}
	if rep.Keys != 1000 {
		t.Errorf("Keys = %d, want 1000", rep.Keys)
	}
	if rep.TotalBytes != s.IndexStats().MemoryBytes {
		t.Errorf("TotalBytes = %d, want %d", rep.TotalBytes, s.IndexStats().MemoryBytes)
	}
	if rep.Registers == 0 || rep.Nodes == 0 {
		t.Errorf("merged report missing substance: %+v", rep)
	}
}

// The Instrumented wrapper forwards the inner shape and carries it in
// snapshots.
func TestInstrumentedShape(t *testing.T) {
	ix := index.NewInstrumented[uint32, int](segtrie.NewDefault[uint32, int]())
	for i := 0; i < 100; i++ {
		ix.Put(uint32(i), i)
	}
	rep := ix.Shape()
	if rep.Structure != "segtrie" || rep.Keys != 100 {
		t.Errorf("forwarded shape = %q/%d keys, want segtrie/100", rep.Structure, rep.Keys)
	}
	snap := ix.Snapshot()
	if snap.Shape.Keys != 100 || snap.Shape.TotalBytes != rep.TotalBytes {
		t.Errorf("snapshot shape = %+v, want the forwarded report", snap.Shape)
	}
}

var _ shape.Shaper = (index.Index[uint32, int])(nil)
