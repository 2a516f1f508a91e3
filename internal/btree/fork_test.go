package btree

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/index"
	"repro/internal/kary"
)

// recorder is a skeleton behind index.Versioned that remembers the last
// fork the writer made, so a test can reach the tree a Snapshot pins.
type recorder[S Stores[uint32], PS Store[uint32, S]] struct {
	*Skeleton[uint32, int, S, PS]
	last **Skeleton[uint32, int, S, PS]
}

func (r recorder[S, PS]) Fork(dst index.Forker[uint32, int], gen, safe uint64) index.Forker[uint32, int] {
	f := new(Skeleton[uint32, int, S, PS])
	if rd, ok := dst.(recorder[S, PS]); ok {
		f = rd.Skeleton
	}
	r.ForkTo(f, gen, safe)
	*r.last = f
	return recorder[S, PS]{f, r.last}
}

// TestPublishedNodesNeverChange is the path-copying invariant: every
// node reachable from a held Snapshot keeps its bytes — store, values,
// child pointers, stamp — through 10,000 later writes that split,
// borrow, merge, grow and shrink the root, for both key stores, both
// layouts and both lane policies.
func TestPublishedNodesNeverChange(t *testing.T) {
	publishedNodesNeverChange(t, spec[uint32](Config{LeafCap: 4, BranchCap: 4}))
	for _, layout := range kary.Layouts {
		publishedNodesNeverChange(t, karySpec[uint32](4, 4, layout))
		publishedNodesNeverChange(t, narrowSpec[uint32](4, 4, layout))
	}
}

func publishedNodesNeverChange[S Stores[uint32], PS Store[uint32, S]](t *testing.T, sp Spec[S]) {
	t.Helper()
	name := fmt.Sprintf("%s/%s", sp.Name, sp.Layout)
	last := build[uint32, int, S, PS](t, sp, nil, nil)
	x := index.NewVersioned[uint32, int](func() index.Index[uint32, int] { return recorder[S, PS]{last, &last} })
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 400; i++ {
		x.Put(uint32(rng.Intn(600)), i)
	}
	x.Put(1, 1) // the last fork is the published version
	snap := x.Snapshot()
	defer snap.Release()
	pinned := last
	images := map[*node[uint32, int, S, PS]]string{}
	var walk func(n *node[uint32, int, S, PS])
	walk = func(n *node[uint32, int, S, PS]) {
		images[n] = fmt.Sprintf("%#v", *n)
		for _, c := range n.children {
			walk(c)
		}
	}
	walk(pinned.root)
	lowest, highest := pinned.Height(), pinned.Height()
	for i := 0; i < 10_000; i++ {
		// Alternate put-heavy and delete-heavy phases of 2,500 writes,
		// which fill the key range and then nearly empty it.
		k := uint32(rng.Intn(600))
		if growing := i/2500%2 == 0; growing == (rng.Intn(10) != 0) {
			x.Put(k, i)
		} else {
			x.Delete(k)
		}
		h := last.Height()
		lowest, highest = min(lowest, h), max(highest, h)
	}
	if lowest == highest {
		t.Fatalf("%s: height stayed %d: the writes never grew or shrank the root", name, lowest)
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
