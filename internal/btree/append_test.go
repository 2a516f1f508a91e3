package btree

import (
	"testing"

	"repro/internal/kary"
	"repro/internal/keys"
)

// leaves lists the tree's leaves, left to right.
func leaves[K keys.Key, V any, S Stores[K], PS Store[K, S]](tr *Skeleton[K, V, S, PS]) []*node[K, V, S, PS] {
	var ls []*node[K, V, S, PS]
	var c cursor[K, V, S, PS]
	for l := c.down(tr.root, leftmost); l != nil; l = c.next() {
		ls = append(ls, l)
	}
	return ls
}

// leafCounts lists the key count of every leaf, left to right.
func leafCounts[S Stores[uint64], PS Store[uint64, S]](tr *Skeleton[uint64, int, S, PS]) []int {
	var counts []int
	for _, l := range leaves(tr) {
		counts = append(counts, l.keys().Len())
	}
	return counts
}

// TestAscendingPutFillsLeaves puts N ascending keys and finds ⌈N/LeafCap⌉
// leaves, as many as Build makes of the same keys, for both stores: each
// append past the rightmost leaf starts a new one and leaves the old one
// full. The shape report's leaf capacity fill shows it.
func TestAscendingPutFillsLeaves(t *testing.T) {
	cfg := DefaultConfig[uint64]()
	for _, layout := range kary.Layouts {
		ascendingPutFillsLeaves(t, karySpec[uint64](cfg.LeafCap, cfg.BranchCap, layout))
	}
	ascendingPutFillsLeaves(t, spec[uint64](cfg))
}

func ascendingPutFillsLeaves[S Stores[uint64], PS Store[uint64, S]](t *testing.T, sp Spec[S]) {
	t.Helper()
	for _, n := range []int{1, 242, 243, 2048, 32768} {
		name := sp.Name + "/" + sp.Layout
		tr := build[uint64, int, S, PS](t, sp, nil, nil)
		ks, vs := make([]uint64, n), make([]int, n)
		for i := range n {
			ks[i], vs[i] = uint64(i)*3, i
			tr.Put(ks[i], i)
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("%s n=%d: %v", name, n, err)
		}
		bulk := build[uint64, int, S, PS](t, sp, ks, vs)
		want := (n + sp.LeafCap - 1) / sp.LeafCap
		if got, built := len(leafCounts(tr)), len(leafCounts(bulk)); got != want || built != want {
			t.Errorf("%s n=%d: %d leaves after ascending Puts, %d after Build, want %d", name, n, got, built, want)
		}
		if n < 32768 {
			continue
		}
		rep := tr.Shape()
		leaves := rep.LevelFill[len(rep.LevelFill)-1]
		if leaves.CapacityFill < 0.95 || rep.CapacityFill < 0.9 {
			t.Errorf("%s n=%d: leaf capacity fill %.3f (overall %.3f), want at least 0.95 (0.9)",
				name, n, leaves.CapacityFill, rep.CapacityFill)
		}
	}
}

// TestDeleteAtRightEdgeOfAppendedTree deletes an appended tree from its
// largest key down, validating after every delete, for both stores. The
// append leaves a 1-key rightmost leaf; deleting its key borrows one from
// the full leaf before it, and once that leaf is down to LeafCap/2 the
// next delete merges the two.
func TestDeleteAtRightEdgeOfAppendedTree(t *testing.T) {
	cfg := DefaultConfig[uint64]()
	for _, layout := range kary.Layouts {
		deleteAtRightEdge(t, karySpec[uint64](cfg.LeafCap, cfg.BranchCap, layout))
	}
	deleteAtRightEdge(t, spec[uint64](cfg))
}

func deleteAtRightEdge[S Stores[uint64], PS Store[uint64, S]](t *testing.T, sp Spec[S]) {
	t.Helper()
	name := sp.Name + "/" + sp.Layout
	n := 2*sp.LeafCap + 1
	tr := build[uint64, int, S, PS](t, sp, nil, nil)
	for i := range n {
		tr.Put(uint64(i), i)
	}
	if got := leafCounts(tr); len(got) != 3 || got[2] != 1 {
		t.Fatalf("%s: appended leaves hold %v keys, want two full ones and 1", name, got)
	}
	borrowed, merged := false, false
	for k := n - 1; k >= 0; k-- {
		before := leafCounts(tr)
		if !tr.Delete(uint64(k)) {
			t.Fatalf("%s: delete %d missed", name, k)
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("%s: after delete %d (leaves %v): %v", name, k, before, err)
		}
		after := leafCounts(tr)
		switch {
		case len(after) < len(before):
			merged = true
		case len(before) > 1 && after[len(after)-2] < before[len(before)-2]:
			borrowed = true
		}
		if _, ok := tr.Get(uint64(k)); ok || tr.Len() != k {
			t.Fatalf("%s: after delete %d: still present or len %d", name, k, tr.Len())
		}
	}
	if !borrowed || !merged {
		t.Errorf("%s: deletes borrowed %v, merged %v; want both", name, borrowed, merged)
	}
}
