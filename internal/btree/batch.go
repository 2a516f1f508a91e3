package btree

import (
	"repro/internal/index"
	"repro/internal/kary"
)

// The baseline B+-Tree satisfies the module-wide index contract; batched
// lookups run on the shared level-wise engine.
var _ index.Index[uint32, int] = (*Tree[uint32, int])(nil)

// GetBatch looks up many keys through the shared level-wise batch engine
// (index.LevelWise) — the binary-search counterpart of the Seg-Tree's
// batched lookup, used as the baseline in batched benchmarks. It returns
// the values and a parallel found mask, in input order.
func (t *Tree[K, V]) GetBatch(ks []K) ([]V, []bool) {
	return index.LevelWise[K, V](ks, t.root,
		func(n *node[K, V]) bool { return n.leaf() },
		func(n *node[K, V], i int) *node[K, V] {
			return n.children[kary.UpperBound(n.keys, ks[i])]
		},
		func(n *node[K, V], i int) (v V, ok bool) {
			if j := kary.UpperBound(n.keys, ks[i]); j > 0 && n.keys[j-1] == ks[i] {
				return n.vals[j-1], true
			}
			return v, false
		})
}

// ContainsBatch reports presence for many keys at once, in input order.
func (t *Tree[K, V]) ContainsBatch(ks []K) []bool {
	_, found := t.GetBatch(ks)
	return found
}

// IndexStats summarizes the tree in the structure-independent terms of
// the index layer, projected from Shape.
func (t *Tree[K, V]) IndexStats() index.Stats { return index.StatsOf(t.Shape()) }
