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

// Get is the toy tree's serial lookup, the reference for the engine's
// answers.
func (n *toyNode) Get(k uint16) (int, bool) { return n.route(k).lookup(k) }

// junk pre-fills the outputs, so that a missing write shows.
const junk = -1

// toyBatch runs the interleaved descent over the toy tree into outputs
// pre-filled with junk. visit is the engine's step for the toy tree.
func toyBatch(probes []uint16, root *toyNode, visit func(n *toyNode, i int) (*toyNode, int, bool)) ([]int, []bool) {
	vals := make([]int, len(probes))
	found := make([]bool, len(probes))
	for i := range vals {
		vals[i], found[i] = junk, true
	}
	Interleave(probes, vals, found, root, visit)
	return vals, found
}

// toyVisit is the plain step: route at the root, look up in the leaf.
func toyVisit(probes []uint16) func(n *toyNode, i int) (*toyNode, int, bool) {
	return func(n *toyNode, i int) (*toyNode, int, bool) {
		if n.children != nil {
			return n.route(probes[i]), 0, false
		}
		v, ok := n.lookup(probes[i])
		return nil, v, ok
	}
}

// toyGet runs the plain descent.
func toyGet(probes []uint16, root *toyNode) ([]int, []bool) {
	return toyBatch(probes, root, toyVisit(probes))
}

// TestInterleaveMatchesGet runs batches at the edges of the cursor window
// — empty, one probe, one short of a window, a window, one past it, and
// two windows and one probe — with hits, misses and duplicates, and
// requires the serial answer for every probe.
func TestInterleaveMatchesGet(t *testing.T) {
	root := buildToy(8, 32)
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 1, cursors - 1, cursors, cursors + 1, 2*cursors + 1, 500} {
		probes := make([]uint16, n)
		for i := range probes {
			probes[i] = uint16(rng.Intn(8 * 32 * 2)) // odd keys miss
		}
		vals, found := toyGet(probes, root)
		for i, p := range probes {
			if wantV, wantOK := root.Get(p); found[i] != wantOK || vals[i] != wantV {
				t.Fatalf("%d probes: probe %d key %d: got (%d,%v), want (%d,%v)",
					n, i, p, vals[i], found[i], wantV, wantOK)
			}
		}
	}
}

// TestInterleaveDuplicates: equal keys in one window, and across window
// boundaries, each get their own descent and the same answer.
func TestInterleaveDuplicates(t *testing.T) {
	root := buildToy(4, 8)
	probes := make([]uint16, 2*cursors+3)
	for i := range probes {
		probes[i] = []uint16{6, 6, 13, 40}[i%4]
	}
	leaves := 0
	plain := toyVisit(probes)
	vals, found := toyBatch(probes, root, func(n *toyNode, i int) (*toyNode, int, bool) {
		if n.children == nil {
			leaves++
		}
		return plain(n, i)
	})
	if leaves != len(probes) {
		t.Fatalf("%d leaf visits for %d probes", leaves, len(probes))
	}
	for i, p := range probes {
		if wantV, wantOK := root.Get(p); found[i] != wantOK || vals[i] != wantV {
			t.Fatalf("probe %d key %d: got (%d,%v), want (%d,%v)", i, p, vals[i], found[i], wantV, wantOK)
		}
	}
}

// TestInterleaveEarlyMiss covers the miss above leaf level: visit ending
// a descent at the root answers the probe with the zero value and false,
// while the other cursors of the window go on to their leaves.
func TestInterleaveEarlyMiss(t *testing.T) {
	root := buildToy(4, 8)
	probes := []uint16{999, 2, 999, 4, 999}
	leaves := 0
	plain := toyVisit(probes)
	vals, found := toyBatch(probes, root, func(n *toyNode, i int) (*toyNode, int, bool) {
		if probes[i] > 500 {
			return nil, 0, false // early miss
		}
		if n.children == nil {
			leaves++
		}
		return plain(n, i)
	})
	want := []int{0, 20, 0, 40, 0}
	for i := range probes {
		if vals[i] != want[i] || found[i] != (want[i] != 0) {
			t.Fatalf("early miss: vals=%v found=%v", vals, found)
		}
	}
	if leaves != 2 {
		t.Fatalf("%d leaf visits, want 2", leaves)
	}
}
