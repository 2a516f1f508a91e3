package segtree

import (
	"repro/internal/index"
	"repro/internal/kary"
	"repro/internal/simd"
)

// The Seg-Tree satisfies the module-wide index contract; batched lookups
// run on the shared level-wise engine.
var _ index.Index[uint32, int] = (*Tree[uint32, int])(nil)

// GetBatch looks up many keys through the shared level-wise batch engine
// (index.LevelWise): probes are sorted, duplicates share one descent, and
// the whole batch crosses the tree one level at a time, so each node's
// k-ary SIMD search runs once per probe group and the independent node
// loads of different groups overlap in the memory system. All leaves sit
// at the same depth, so the batch reaches them in lockstep.
//
// It returns the values and a parallel found mask, in input order.
func (t *Tree[K, V]) GetBatch(ks []K) ([]V, []bool) {
	ev := t.cfg.Evaluator
	searches := make([]simd.Search, len(ks))
	for i, k := range ks {
		searches[i] = kary.Prepare(k)
	}
	return index.LevelWise[K, V](ks, t.root,
		func(n *node[K, V]) bool { return n.leaf() },
		func(n *node[K, V], i int) *node[K, V] {
			return n.children[n.kt.SearchP(ks[i], searches[i], ev)]
		},
		func(n *node[K, V], i int) (v V, ok bool) {
			if pos, found := n.kt.LookupP(ks[i], searches[i], ev); found {
				return n.vals[pos-1], true
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
