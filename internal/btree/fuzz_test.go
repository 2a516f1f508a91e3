package btree

import (
	"math"
	"testing"

	"repro/internal/bitmask"
	"repro/internal/kary"
	"repro/internal/keys"
)

// karySpec is the spec of a Seg-Tree with the given capacities and
// layout: the skeleton over kary.Tree key stores, as package segtree
// builds it.
func karySpec[K keys.Key](leafCap, branchCap int, layout kary.Layout) Spec[kary.Tree[K]] {
	return Spec[kary.Tree[K]]{
		Name:      "segtree",
		Layout:    layout.String(),
		LeafCap:   leafCap,
		BranchCap: branchCap,
		Evaluator: bitmask.Popcount,
		Empty:     *kary.BuildUnchecked[K](nil, layout),
	}
}

// narrowSpec is karySpec with NarrowLanes key stores.
func narrowSpec[K keys.Key](leafCap, branchCap int, layout kary.Layout) Spec[kary.Tree[K]] {
	sp := karySpec[K](leafCap, branchCap, layout)
	sp.Empty = kary.Empty[K](layout, kary.NarrowLanes)
	return sp
}

// build is Build for specs the test knows to be valid.
func build[K keys.Key, V any, S Stores[K], PS Store[K, S]](t *testing.T, sp Spec[S], ks []K, vs []V) *Skeleton[K, V, S, PS] {
	t.Helper()
	tr, err := Build[K, V, S, PS](sp, ks, vs)
	if err != nil {
		t.Fatal(err)
	}
	return &tr
}

// FuzzTreeOps drives a fuzzed operation stream through the skeleton and
// a reference map. The first byte picks the key store (bit 2: the
// baseline's sorted slice, else a k-ary tree whose layout is bit 0) and
// the key type (bit 1: uint8 keys, or uint64 keys spread evenly over the
// whole 64-bit range); bit 3 makes the k-ary stores NarrowLanes, with
// int32 keys across zero whose node spans cross 2^8 and 2^16 (bit 1
// clear) or uint64 keys whose spans cross 2^32 (bit 1 set). Every later
// byte is a Put (high bit clear) or a Delete of one of 128 keys. The
// structural invariants are checked after every operation that changes
// the node count — each split, merge and root change — and at the end.
func FuzzTreeOps(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 128, 1, 64, 200, 255})
	f.Add([]byte{1, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 129, 130, 131, 132, 133})
	f.Add([]byte{2, 127, 0, 126, 1, 125, 2, 124, 3, 123, 4, 255, 128, 254, 129})
	f.Add([]byte{3, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 110, 120, 138, 148, 158, 168})
	f.Add([]byte{4, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 129, 130, 131, 132, 133, 0, 128})
	f.Add([]byte{6, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 110, 120, 138, 148, 158, 168})
	// An ascending run fills leaves by appends, then deletes at the right
	// edge drain the 1-key rightmost leaf, borrow and merge.
	f.Add([]byte{1, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 141, 140, 139, 138, 137, 136, 135, 134, 133, 132})
	f.Add([]byte{4, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 141, 140, 139, 138, 137, 136, 135, 134, 133, 132})
	// Narrow stores: an ascending run, then deletes from the left edge.
	f.Add([]byte{8, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 129, 130, 131, 132, 133, 134, 135, 136})
	f.Add([]byte{11, 127, 1, 126, 2, 125, 3, 124, 64, 65, 66, 67, 68, 255, 129, 254, 130, 253})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 {
			return
		}
		small := func(b byte) uint8 { return b }
		wide := func(b byte) uint64 { return uint64(b) * (math.MaxUint64 / 127) }
		layout := kary.Layouts[ops[0]&1]
		switch sortedStore, wideKeys, narrow := ops[0]&4 != 0, ops[0]&2 != 0, ops[0]&8 != 0; {
		case narrow && wideKeys:
			fuzzTreeOps(t, narrowSpec[uint64](4, 4, layout), ops[1:], func(b byte) uint64 { return 1<<40 + uint64(b)<<26 })
		case narrow:
			fuzzTreeOps(t, narrowSpec[int32](4, 4, layout), ops[1:], func(b byte) int32 { return (int32(b) - 64) * 3 << (b & 15) })
		case sortedStore && wideKeys:
			fuzzTreeOps(t, spec[uint64](Config{LeafCap: 4, BranchCap: 4}), ops[1:], wide)
		case sortedStore:
			fuzzTreeOps(t, spec[uint8](Config{LeafCap: 4, BranchCap: 4}), ops[1:], small)
		case wideKeys:
			fuzzTreeOps(t, karySpec[uint64](4, 4, layout), ops[1:], wide)
		default:
			fuzzTreeOps(t, karySpec[uint8](4, 4, layout), ops[1:], small)
		}
	})
}

func fuzzTreeOps[K keys.Key, S Stores[K], PS Store[K, S]](t *testing.T, sp Spec[S], ops []byte, key func(byte) K) {
	tree := build[K, int, S, PS](t, sp, nil, nil)
	ref := map[K]int{}
	nodes := countNodes(tree.root)
	for i, op := range ops {
		k := key(op & 0x7F)
		_, existed := ref[k]
		if op&0x80 == 0 {
			if tree.Put(k, i) == existed {
				t.Fatalf("op %d: put %v", i, k)
			}
			ref[k] = i
		} else {
			if tree.Delete(k) != existed {
				t.Fatalf("op %d: delete %v", i, k)
			}
			delete(ref, k)
		}
		if now := countNodes(tree.root); now != nodes {
			nodes = now
			if err := tree.Validate(); err != nil {
				t.Fatalf("op %d (%v): %v", i, k, err)
			}
		}
	}
	if tree.Len() != len(ref) {
		t.Fatalf("len %d want %d", tree.Len(), len(ref))
	}
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
	for k, v := range ref {
		if got, ok := tree.Get(k); !ok || got != v {
			t.Fatalf("get %v", k)
		}
	}
}

// countNodes counts the nodes of the subtree under n.
func countNodes[K keys.Key, V any, S Stores[K], PS Store[K, S]](n *node[K, V, S, PS]) int {
	c := 1
	for _, ch := range n.children {
		c += countNodes(ch)
	}
	return c
}
