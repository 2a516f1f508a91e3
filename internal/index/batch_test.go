package index

import (
	"math/rand"
	"testing"
)

// toyNode is a minimal two-level tree for driving the engine directly: a
// root that routes by key range to leaves holding sorted (key, value)
// runs. It lets the tests observe callback counts, which the real trees
// hide.
type toyNode struct {
	children []*toyNode // root only
	bounds   []uint16   // child i holds keys < bounds[i]
	ks       []uint16   // leaf only
	vs       []int
}

func buildToy(fanout, perLeaf int) *toyNode {
	root := &toyNode{}
	next := uint16(0)
	for c := 0; c < fanout; c++ {
		leaf := &toyNode{}
		for j := 0; j < perLeaf; j++ {
			leaf.ks = append(leaf.ks, next)
			leaf.vs = append(leaf.vs, int(next)*10)
			next += 2 // odd keys are misses
		}
		root.children = append(root.children, leaf)
		root.bounds = append(root.bounds, next)
	}
	return root
}

func (n *toyNode) route(k uint16) *toyNode {
	for i, b := range n.bounds {
		if k < b {
			return n.children[i]
		}
	}
	return n.children[len(n.children)-1]
}

func (n *toyNode) lookup(k uint16) (int, bool) {
	for i, key := range n.ks {
		if key == k {
			return n.vs[i], true
		}
	}
	return 0, false
}

// Get is the toy tree's serial lookup, the reference for the level-wise
// answers.
func (n *toyNode) Get(k uint16) (int, bool) { return n.route(k).lookup(k) }

// toyBatch runs the level-wise descent over the toy tree at any batch
// size, into outputs pre-filled with junk so that a missing write shows.
func toyBatch(probes []uint16, root *toyNode, step func(n *toyNode, i int) *toyNode, resolve func(n *toyNode, i int) (int, bool)) ([]int, []bool) {
	vals := make([]int, len(probes))
	found := make([]bool, len(probes))
	for i := range vals {
		vals[i], found[i] = -1, true
	}
	LevelWise(probes, vals, found, root, func(n *toyNode) bool { return n.children == nil }, step, resolve)
	return vals, found
}

func TestLevelWiseMatchesDirectLookup(t *testing.T) {
	root := buildToy(8, 32)
	rng := rand.New(rand.NewSource(3))
	probes := make([]uint16, 500) // several cursor windows
	for i := range probes {
		probes[i] = uint16(rng.Intn(8 * 32 * 2))
	}
	vals, found := toyBatch(probes, root,
		func(n *toyNode, i int) *toyNode { return n.route(probes[i]) },
		func(n *toyNode, i int) (int, bool) { return n.lookup(probes[i]) })
	for i, p := range probes {
		wantV, wantOK := root.Get(p)
		if found[i] != wantOK || vals[i] != wantV {
			t.Fatalf("probe %d key %d: got (%d,%v), want (%d,%v)",
				i, p, vals[i], found[i], wantV, wantOK)
		}
	}
}

// TestLevelWiseGroupsDuplicates pins the engine's amortization contract:
// the per-node search callbacks run once per distinct key, not once per
// probe.
func TestLevelWiseGroupsDuplicates(t *testing.T) {
	root := buildToy(4, 8)
	probes := []uint16{6, 6, 6, 0, 40, 6, 0, 40, 40, 13}
	distinct := 4 // {0, 6, 13, 40}
	steps, resolves := 0, 0
	_, found := toyBatch(probes, root,
		func(n *toyNode, i int) *toyNode { steps++; return n.route(probes[i]) },
		func(n *toyNode, i int) (int, bool) { resolves++; return n.lookup(probes[i]) })
	if steps != distinct || resolves != distinct {
		t.Fatalf("steps=%d resolves=%d, want %d each", steps, resolves, distinct)
	}
	for i, p := range probes {
		if want := p%2 == 0; found[i] != want {
			t.Fatalf("probe %d key %d: found=%v", i, p, found[i])
		}
	}
}

// TestLevelWiseEarlyTermination covers the trie-style miss above leaf
// level: step returning the zero node handle ends the probe as not found
// without touching resolve.
func TestLevelWiseEarlyTermination(t *testing.T) {
	root := buildToy(4, 8)
	probes := []uint16{999, 2, 999}
	resolves := 0
	vals, found := toyBatch(probes, root,
		func(n *toyNode, i int) *toyNode {
			if probes[i] > 500 {
				return nil // early miss
			}
			return n.route(probes[i])
		},
		func(n *toyNode, i int) (int, bool) { resolves++; return n.lookup(probes[i]) })
	if found[0] || found[2] || !found[1] || vals[1] != 20 || vals[0] != 0 || vals[2] != 0 {
		t.Fatalf("early termination: vals=%v found=%v", vals, found)
	}
	if resolves != 1 {
		t.Fatalf("resolve ran %d times, want 1", resolves)
	}
}

func TestLevelWiseEmptyInputs(t *testing.T) {
	if vals, found := toyBatch(nil, buildToy(2, 2),
		func(n *toyNode, i int) *toyNode { return nil },
		func(*toyNode, int) (int, bool) { return 0, false }); len(vals) != 0 || len(found) != 0 {
		t.Fatal("nil probes")
	}
	// Zero root (empty optimized trie): every probe misses.
	vals := []int{-1, -1}
	found := []bool{true, true}
	LevelWise([]uint16{1, 2}, vals, found, (*toyNode)(nil),
		func(*toyNode) bool { t.Fatal("atLeaf on zero root"); return false },
		func(n *toyNode, i int) *toyNode { return nil },
		func(*toyNode, int) (int, bool) { return 0, false })
	if found[0] || found[1] || vals[0] != 0 || vals[1] != 0 {
		t.Fatal("zero root hit")
	}
}

// sizedTree is a LevelWiser of a given size that records which batch
// path Batch chose.
type sizedTree struct {
	size      int
	levelWise bool
}

func (t *sizedTree) Get(k uint16) (int, bool) { return int(k) * 10, k%2 == 0 }
func (t *sizedTree) Len() int                 { return t.size }
func (t *sizedTree) GetBatchLevelWise(ks []uint16, vals []int, found []bool) {
	t.levelWise = true
	GetEach[uint16, int](t, ks, vals, found)
}

// TestBatchCrossover pins Batch's choice: the level-wise descent from
// levelWiseMin probes into a tree of at least levelWiseKeyBytes key
// bytes, serial Gets for fewer probes or a smaller tree.
func TestBatchCrossover(t *testing.T) {
	big := levelWiseKeyBytes / 2 // 16-bit keys
	for _, size := range []int{0, 1000, big - 1, big} {
		for _, n := range []int{0, 1, levelWiseMin - 1, levelWiseMin, levelWiseMin + 1} {
			tree := &sizedTree{size: size}
			probes := make([]uint16, n)
			for i := range probes {
				probes[i] = uint16(i)
			}
			vals, found := make([]int, n), make([]bool, n)
			Batch[uint16, int](tree, probes, vals, found)
			if want := n >= levelWiseMin && size >= big; tree.levelWise != want {
				t.Errorf("%d probes, %d keys: level-wise=%v, want %v", n, size, tree.levelWise, want)
			}
			for i, p := range probes {
				if wv, wok := tree.Get(p); vals[i] != wv || found[i] != wok {
					t.Fatalf("%d probes: probe %d: got (%d,%v), want (%d,%v)", n, i, vals[i], found[i], wv, wok)
				}
			}
		}
	}
}
