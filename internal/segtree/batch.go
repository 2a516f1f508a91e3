package segtree

import (
	"repro/internal/index"
	"repro/internal/kary"
)

// The Seg-Tree satisfies the module-wide index contract; batched lookups
// run on the shared batch core.
var _ index.Index[uint32, int] = (*Tree[uint32, int])(nil)

// GetBatchInto looks up ks into vals and found, in input order, with the
// shared interleaved descent (index.Interleave): up to 16 probes descend
// together, one node per round, so the node loads of different probes
// overlap in the memory system. Each step is the node's k-ary SIMD
// search.
func (t *Tree[K, V]) GetBatchInto(ks []K, vals []V, found []bool) {
	ev := t.cfg.Evaluator
	index.Interleave(ks, vals, found, t.root, func(n *node[K, V], i int) (next *node[K, V], v V, ok bool) {
		k := ks[i]
		if !n.leaf() {
			return n.children[n.kt.SearchP(k, kary.Prepare(k), ev)], v, false
		}
		if pos, hit := n.kt.LookupP(k, kary.Prepare(k), ev); hit {
			return nil, n.vals[pos-1], true
		}
		return nil, v, false
	})
}

// GetBatch looks up many keys at once: GetBatchInto into fresh slices.
func (t *Tree[K, V]) GetBatch(ks []K) ([]V, []bool) { return index.GetBatch[K, V](t, ks) }

// ContainsBatch reports presence for many keys at once, in input order.
func (t *Tree[K, V]) ContainsBatch(ks []K) []bool { return index.ContainsBatch[K, V](t, ks) }

// IndexStats summarizes the tree in the structure-independent terms of
// the index layer, projected from Shape.
func (t *Tree[K, V]) IndexStats() index.Stats { return index.StatsOf(t.Shape()) }
