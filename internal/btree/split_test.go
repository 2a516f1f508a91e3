package btree

import (
	"math"
	"slices"
	"testing"

	"repro/internal/kary"
)

// checkFreshNodes fails unless every node of tr stores exactly the bytes a
// fresh Build of its keys would.
func checkFreshNodes(t *testing.T, tr *Skeleton[uint64, int, kary.Tree[uint64], *kary.Tree[uint64]]) {
	t.Helper()
	var walk func(n *node[uint64, int, kary.Tree[uint64], *kary.Tree[uint64]])
	walk = func(n *node[uint64, int, kary.Tree[uint64], *kary.Tree[uint64]]) {
		fresh := kary.Build(n.keys().Keys(), n.keys().Layout())
		if !slices.Equal(n.keys().Linearized(), fresh.Linearized()) {
			t.Fatalf("node with %d keys differs from a fresh Build", n.keys().Len())
		}
		for _, c := range n.children {
			walk(c)
		}
	}
	walk(tr.root)
}

// TestSplitFullLeaf overflows a full 64-bit root leaf at its first, a
// middle and its last position, for both layouts of the k-ary store and
// for the sorted store: the halves hold 121 and 122 keys, the separator
// is the right half's minimum, and k-ary nodes are fresh
// linearizations.
func TestSplitFullLeaf(t *testing.T) {
	cfg := DefaultConfig[uint64]()
	for _, layout := range kary.Layouts {
		splitFullLeaf(t, karySpec[uint64](cfg.LeafCap, cfg.BranchCap, layout), checkFreshNodes)
	}
	splitFullLeaf(t, spec[uint64](cfg), nil)
}

func splitFullLeaf[S Stores[uint64], PS Store[uint64, S]](t *testing.T, sp Spec[S], check func(*testing.T, *Skeleton[uint64, int, S, PS])) {
	t.Helper()
	const step = math.MaxUint64 / 512
	for _, tc := range []struct {
		name string
		key  uint64
	}{
		{"first", 1},
		{"middle", 121*2*step + 1},
		{"last", math.MaxUint64},
	} {
		name := sp.Name + "/" + sp.Layout + "/" + tc.name
		tr := build[uint64, int, S, PS](t, sp, nil, nil)
		for i := 1; i <= sp.LeafCap; i++ {
			tr.Put(uint64(i)*2*step, i)
		}
		if !tr.root.leaf() || tr.root.keys().Len() != sp.LeafCap {
			t.Fatalf("%s: setup is not one full leaf", name)
		}
		tr.Put(tc.key, -1)
		root := tr.root
		if root.leaf() || root.keys().Len() != 1 || len(root.children) != 2 {
			t.Fatalf("%s: root after the split has %d keys", name, root.keys().Len())
		}
		l, r := root.children[0], root.children[1]
		if l.keys().Len() != 121 || r.keys().Len() != 122 {
			t.Fatalf("%s: halves hold %d and %d keys, want 121 and 122", name, l.keys().Len(), r.keys().Len())
		}
		if sep, min := root.keys().At(0), r.keys().At(0); sep != min {
			t.Fatalf("%s: separator %d, right half starts at %d", name, sep, min)
		}
		if l.next != r || r.next != nil || tr.first != l {
			t.Fatalf("%s: leaf chain not relinked", name)
		}
		if v, ok := tr.Get(tc.key); !ok || v != -1 {
			t.Fatalf("%s: inserted key lost", name)
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if check != nil {
			check(t, tr)
		}
	}
}

// TestSplitFullBranch overflows a full 64-bit root branch, for both
// layouts of the k-ary store and for the sorted store: a bulk-loaded tree
// of BranchCap+1 full leaves has a root holding BranchCap keys, so an
// insert into its first, a middle or its last leaf splits that leaf and
// then the root. The branch halves hold 121 keys and 122 children each,
// and k-ary nodes are fresh linearizations.
func TestSplitFullBranch(t *testing.T) {
	cfg := DefaultConfig[uint64]()
	for _, layout := range kary.Layouts {
		splitFullBranch(t, karySpec[uint64](cfg.LeafCap, cfg.BranchCap, layout), checkFreshNodes)
	}
	splitFullBranch(t, spec[uint64](cfg), nil)
}

func splitFullBranch[S Stores[uint64], PS Store[uint64, S]](t *testing.T, sp Spec[S], check func(*testing.T, *Skeleton[uint64, int, S, PS])) {
	t.Helper()
	n := (sp.BranchCap + 1) * sp.LeafCap
	ks, vs := make([]uint64, n), make([]int, n)
	step := uint64(math.MaxUint64 / uint64(2*n+2))
	for i := range ks {
		ks[i], vs[i] = uint64(i+1)*2*step, i
	}
	for _, tc := range []struct {
		name string
		leaf int // the leaf the insert lands in
	}{
		{"first", 0},
		{"middle", sp.BranchCap / 2},
		{"last", sp.BranchCap},
	} {
		name := sp.Name + "/" + sp.Layout + "/" + tc.name
		tr := build[uint64, int, S, PS](t, sp, ks, vs)
		if tr.root.leaf() || tr.root.keys().Len() != sp.BranchCap {
			t.Fatalf("%s: setup root holds %d keys", name, tr.root.keys().Len())
		}
		key := ks[tc.leaf*sp.LeafCap] + step // inside the leaf, absent
		tr.Put(key, -1)
		root := tr.root
		if root.keys().Len() != 1 || len(root.children) != 2 {
			t.Fatalf("%s: new root has %d keys", name, root.keys().Len())
		}
		for _, half := range root.children {
			if half.keys().Len() != 121 || len(half.children) != 122 {
				t.Fatalf("%s: branch half holds %d keys and %d children, want 121 and 122",
					name, half.keys().Len(), len(half.children))
			}
		}
		if v, ok := tr.Get(key); !ok || v != -1 {
			t.Fatalf("%s: inserted key lost", name)
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if check != nil {
			check(t, tr)
		}
	}
}
