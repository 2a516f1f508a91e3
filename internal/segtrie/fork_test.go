package segtrie

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bitmask"
	"repro/internal/index"
	"repro/internal/kary"
)

// recorder is a trie behind index.Versioned that remembers the last fork
// the writer made, so a test can reach the trie a Snapshot pins.
type recorder struct {
	*Trie[uint32, int]
	last **Trie[uint32, int]
}

func (r recorder) Fork(dst index.Forker[uint32, int], gen, safe uint64) index.Forker[uint32, int] {
	var d index.Forker[uint32, int]
	if rd, ok := dst.(recorder); ok {
		d = rd.Trie
	}
	f := r.Trie.Fork(d, gen, safe).(*Trie[uint32, int])
	*r.last = f
	return recorder{f, r.last}
}

// TestPublishedNodesNeverChange is the path-copying invariant: every
// node reachable from a held Snapshot keeps its bytes — partial keys,
// prefix, children, values, stamp — through 10,000 later writes that add
// and unlink nodes and, in the optimized trie, split prefixes and splice
// nodes into their children, for both tries and both layouts.
func TestPublishedNodesNeverChange(t *testing.T) {
	for _, layout := range kary.Layouts {
		cfg := Config{Layout: layout, Evaluator: bitmask.Popcount}
		publishedNodesNeverChange(t, New[uint32, int](cfg))
		publishedNodesNeverChange(t, NewOptimized[uint32, int](cfg))
	}
}

func publishedNodesNeverChange(t *testing.T, tr *Trie[uint32, int]) {
	t.Helper()
	name := fmt.Sprintf("%s/%v", tr.name(), tr.cfg.Layout)
	last := tr
	x := index.NewVersioned[uint32, int](func() index.Index[uint32, int] { return recorder{tr, &last} })
	rng := rand.New(rand.NewSource(3))
	// Keys share some segments and differ in others, so prefixes split
	// and splice.
	key := func() uint32 { return uint32(rng.Intn(40))<<24 | uint32(rng.Intn(3))<<12 | uint32(rng.Intn(5)) }
	for i := 0; i < 300; i++ {
		x.Put(key(), i)
	}
	x.Put(key(), 1) // the last fork is the published version
	snap := x.Snapshot()
	defer snap.Release()
	pinned := last
	images := map[*node[int]]string{}
	var walk func(n *node[int])
	walk = func(n *node[int]) {
		images[n] = fmt.Sprintf("%#v", *n)
		for _, c := range n.children {
			walk(c)
		}
	}
	walk(pinned.root)
	for i := 0; i < 10_000; i++ {
		// Alternate put-heavy and delete-heavy phases of 2,500 writes.
		if growing := i/2500%2 == 0; growing == (rng.Intn(10) != 0) {
			x.Put(key(), i)
		} else {
			x.Delete(key())
		}
	}
	if err := last.Validate(); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	for n, img := range images {
		if got := fmt.Sprintf("%#v", *n); got != img {
			t.Fatalf("%s: a node the snapshot reaches changed:\n was %s\n now %s", name, img, got)
		}
	}
	if err := pinned.Validate(); err != nil {
		t.Fatalf("%s: pinned version: %v", name, err)
	}
}
