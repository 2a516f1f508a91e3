package workload

import (
	"math/rand"
	"testing"

	"repro/internal/segtrie"
	"repro/internal/shape"
)

func TestClassStrings(t *testing.T) {
	if Single.String() != "Single" || FiveMB.String() != "5 MB" || HundredMB.String() != "100 MB" {
		t.Fatal("class names")
	}
	if Class(9).String() != "unknown" {
		t.Fatal("unknown class")
	}
}

func TestNodeSizeMatchesTable3(t *testing.T) {
	if NodeSize[uint8]() != 2296 || NodeSize[uint16]() != 4056 ||
		NodeSize[uint32]() != 4096 || NodeSize[uint64]() != 3880 {
		t.Fatal("node sizes diverge from Table 3")
	}
	// All nodes must stay below the 4 KB prefetch boundary (§5.1), with
	// the 32-bit node exactly at it.
	for _, sz := range []int{NodeSize[uint8](), NodeSize[uint16](), NodeSize[uint32](), NodeSize[uint64]()} {
		if sz > 4096 {
			t.Fatalf("node size %d above 4 KB", sz)
		}
	}
}

func TestClassSizing(t *testing.T) {
	if NodesFor[uint64](Single) != 1 {
		t.Fatal("single must be one node")
	}
	n5 := NodesFor[uint64](FiveMB)
	n100 := NodesFor[uint64](HundredMB)
	if n5 < 1000 || n100 < 20*n5/2 {
		t.Fatalf("class node counts: %d, %d", n5, n100)
	}
	if KeysFor[uint64](FiveMB) != n5*242 {
		t.Fatal("64-bit keys per class")
	}
	// 8-bit caps at the 256-value domain and compensates with more trees.
	if KeysFor[uint8](HundredMB) != 256 {
		t.Fatalf("8-bit keys capped: %d", KeysFor[uint8](HundredMB))
	}
	if TreesFor[uint8](HundredMB) < 100 {
		t.Fatalf("8-bit tree count: %d", TreesFor[uint8](HundredMB))
	}
	if TreesFor[uint64](HundredMB) != 1 {
		t.Fatalf("64-bit tree count: %d", TreesFor[uint64](HundredMB))
	}
}

func TestAscending(t *testing.T) {
	ks := Ascending[uint32](1000)
	for i, k := range ks {
		if k != uint32(i) {
			t.Fatalf("index %d: %d", i, k)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected domain panic")
		}
	}()
	Ascending[uint8](300)
}

func TestFullDomain(t *testing.T) {
	u := FullDomain[uint8]()
	if len(u) != 256 || u[0] != 0 || u[255] != 255 {
		t.Fatalf("uint8 domain: len=%d", len(u))
	}
	s := FullDomain[int8]()
	if len(s) != 256 || s[0] != -128 || s[255] != 127 {
		t.Fatalf("int8 domain: %d..%d", s[0], s[255])
	}
	for i := 1; i < len(s); i++ {
		if s[i-1] >= s[i] {
			t.Fatal("int8 domain not ascending")
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for wide type")
		}
	}()
	FullDomain[uint32]()
}

func TestUniformRandomDistinctSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	ks := UniformRandom[uint64](rng, 5000)
	if len(ks) != 5000 {
		t.Fatalf("len %d", len(ks))
	}
	for i := 1; i < len(ks); i++ {
		if ks[i-1] >= ks[i] {
			t.Fatal("not strictly ascending")
		}
	}
}

// TestSkewedDepthFillsExactLevels loads each skewed set into a plain
// Seg-Trie and checks that exactly the requested number of levels is
// filled.
func TestSkewedDepthFillsExactLevels(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	for depth := 1; depth <= 8; depth++ {
		n := 200
		if depth == 1 {
			n = 200 // fits the 256-value span
		}
		ks := SkewedDepth(rng, n, depth)
		if len(ks) != n {
			t.Fatalf("depth %d: %d keys", depth, len(ks))
		}
		tr := segtrie.NewDefault[uint64, int]()
		for i, k := range ks {
			tr.Put(k, i)
		}
		if got := filledLevels(tr.Shape()); got != depth {
			t.Fatalf("depth %d: trie fills %d levels", depth, got)
		}
	}
}

// filledLevels counts the trie levels below the longest common prefix of
// all stored keys — the "depth of the tree" of the paper's Figure 11. A
// prefix level is a single node holding a single partial key; the last
// level always counts.
func filledLevels(rep shape.Report) int {
	if rep.Keys == 0 {
		return 0
	}
	last := len(rep.LevelFill) - 1
	for _, lf := range rep.LevelFill[:last] {
		if lf.Nodes != 1 || lf.Keys != 1 {
			return len(rep.LevelFill) - lf.Level
		}
	}
	return 1
}

func TestProbesDrawFromLoaded(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	loaded := Ascending[uint32](100)
	ps := Probes(rng, loaded, DefaultProbeCount)
	if len(ps) != DefaultProbeCount {
		t.Fatalf("probe count %d", len(ps))
	}
	for _, p := range ps {
		if p >= 100 {
			t.Fatalf("probe %d not from loaded set", p)
		}
	}
}

func TestProbesWithMisses(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	loaded := Ascending[uint64](1000)
	ps := ProbesWithMisses(rng, loaded, 2000, 0.5)
	misses := 0
	for _, p := range ps {
		if p >= 1000 {
			misses++
		}
	}
	if misses < 700 || misses > 1300 {
		t.Fatalf("miss count %d far from 1000", misses)
	}
}
