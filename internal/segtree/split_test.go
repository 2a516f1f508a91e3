package segtree

import (
	"math"
	"slices"
	"testing"

	"repro/internal/kary"
)

// checkFreshNodes fails unless every node of tr stores exactly the bytes a
// fresh Build of its keys would.
func checkFreshNodes(t *testing.T, tr *Tree[uint64, int]) {
	t.Helper()
	var walk func(n *node[uint64, int])
	walk = func(n *node[uint64, int]) {
		fresh := kary.Build(n.kt.Keys(), tr.cfg.Layout)
		if !slices.Equal(n.kt.Linearized(), fresh.Linearized()) {
			t.Fatalf("node with %d keys differs from a fresh Build", n.kt.Len())
		}
		for _, c := range n.children {
			walk(c)
		}
	}
	walk(tr.root)
}

// TestSplitFullLeaf overflows a full 64-bit root leaf at its first, a
// middle and its last position: the halves hold 121 and 122 keys, the
// separator is the right half's minimum, and both halves are fresh
// linearizations.
func TestSplitFullLeaf(t *testing.T) {
	for _, layout := range kary.Layouts {
		cfg := DefaultConfig[uint64]()
		cfg.Layout = layout
		const step = math.MaxUint64 / 512
		for _, tc := range []struct {
			name string
			key  uint64
		}{
			{"first", 1},
			{"middle", 121*2*step + 1},
			{"last", math.MaxUint64},
		} {
			tr := New[uint64, int](cfg)
			for i := 1; i <= cfg.LeafCap; i++ {
				tr.Put(uint64(i)*2*step, i)
			}
			if !tr.root.leaf() || tr.root.kt.Len() != cfg.LeafCap {
				t.Fatalf("%v/%s: setup is not one full leaf", layout, tc.name)
			}
			tr.Put(tc.key, -1)
			root := tr.root
			if root.leaf() || root.kt.Len() != 1 || len(root.children) != 2 {
				t.Fatalf("%v/%s: root after the split has %d keys", layout, tc.name, root.kt.Len())
			}
			l, r := root.children[0], root.children[1]
			if l.kt.Len() != 121 || r.kt.Len() != 122 {
				t.Fatalf("%v/%s: halves hold %d and %d keys, want 121 and 122", layout, tc.name, l.kt.Len(), r.kt.Len())
			}
			if sep, min := root.kt.At(0), r.kt.At(0); sep != min {
				t.Fatalf("%v/%s: separator %d, right half starts at %d", layout, tc.name, sep, min)
			}
			if l.next != r || r.next != nil || tr.first != l {
				t.Fatalf("%v/%s: leaf chain not relinked", layout, tc.name)
			}
			if v, ok := tr.Get(tc.key); !ok || v != -1 {
				t.Fatalf("%v/%s: inserted key lost", layout, tc.name)
			}
			if err := tr.Validate(); err != nil {
				t.Fatalf("%v/%s: %v", layout, tc.name, err)
			}
			checkFreshNodes(t, tr)
		}
	}
}

// TestSplitFullBranch overflows a full 64-bit root branch: a bulk-loaded
// tree of BranchCap+1 full leaves has a root holding BranchCap keys, so an
// insert into its first, a middle or its last leaf splits that leaf and
// then the root. The branch halves hold 121 keys and 122 children each.
func TestSplitFullBranch(t *testing.T) {
	for _, layout := range kary.Layouts {
		cfg := DefaultConfig[uint64]()
		cfg.Layout = layout
		n := (cfg.BranchCap + 1) * cfg.LeafCap
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
			{"middle", cfg.BranchCap / 2},
			{"last", cfg.BranchCap},
		} {
			tr := BulkLoad(cfg, ks, vs)
			if tr.root.leaf() || tr.root.kt.Len() != cfg.BranchCap {
				t.Fatalf("%v/%s: setup root holds %d keys", layout, tc.name, tr.root.kt.Len())
			}
			key := ks[tc.leaf*cfg.LeafCap] + step // inside the leaf, absent
			tr.Put(key, -1)
			root := tr.root
			if root.kt.Len() != 1 || len(root.children) != 2 {
				t.Fatalf("%v/%s: new root has %d keys", layout, tc.name, root.kt.Len())
			}
			for _, half := range root.children {
				if half.kt.Len() != 121 || len(half.children) != 122 {
					t.Fatalf("%v/%s: branch half holds %d keys and %d children, want 121 and 122",
						layout, tc.name, half.kt.Len(), len(half.children))
				}
			}
			if v, ok := tr.Get(key); !ok || v != -1 {
				t.Fatalf("%v/%s: inserted key lost", layout, tc.name)
			}
			if err := tr.Validate(); err != nil {
				t.Fatalf("%v/%s: %v", layout, tc.name, err)
			}
			checkFreshNodes(t, tr)
		}
	}
}
