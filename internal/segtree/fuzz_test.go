package segtree

import (
	"math"
	"testing"

	"repro/internal/bitmask"
	"repro/internal/kary"
	"repro/internal/keys"
)

// FuzzTreeOps drives a fuzzed operation stream through the Seg-Tree and a
// reference map. The first byte picks the layout (bit 0) and the key
// type (bit 1: uint8 keys, or uint64 keys spread evenly over the whole
// 64-bit range); every later byte is a Put (high bit clear) or a Delete
// of one of 128 keys. The structural invariants are checked after every
// operation that changes the node count — each split, merge and root
// change — and at the end.
func FuzzTreeOps(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 128, 1, 64, 200, 255})
	f.Add([]byte{1, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 129, 130, 131, 132, 133})
	f.Add([]byte{2, 127, 0, 126, 1, 125, 2, 124, 3, 123, 4, 255, 128, 254, 129})
	f.Add([]byte{3, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 110, 120, 138, 148, 158, 168})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 {
			return
		}
		layout := kary.Layouts[ops[0]&1]
		if ops[0]&2 == 0 {
			fuzzTreeOps(t, layout, ops[1:], func(b byte) uint8 { return b })
		} else {
			fuzzTreeOps(t, layout, ops[1:], func(b byte) uint64 { return uint64(b) * (math.MaxUint64 / 127) })
		}
	})
}

func fuzzTreeOps[K keys.Key](t *testing.T, layout kary.Layout, ops []byte, key func(byte) K) {
	cfg := Config{LeafCap: 4, BranchCap: 4, Layout: layout, Evaluator: bitmask.Popcount}
	tree := New[K, int](cfg)
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
func countNodes[K keys.Key, V any](n *node[K, V]) int {
	c := 1
	for _, ch := range n.children {
		c += countNodes(ch)
	}
	return c
}
