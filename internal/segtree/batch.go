package segtree

import (
	"repro/internal/index"
	"repro/internal/kary"
)

// The Seg-Tree satisfies the module-wide index contract; batched lookups
// run on the shared batch core.
var _ index.Index[uint32, int] = (*Tree[uint32, int])(nil)

// GetBatchInto looks up ks into vals and found, in input order: the
// level-wise descent for batches and trees large enough to gain from it
// (index.Batch), serial Gets otherwise.
func (t *Tree[K, V]) GetBatchInto(ks []K, vals []V, found []bool) {
	index.Batch[K, V](t, ks, vals, found)
}

// GetBatchLevelWise answers ks with the shared level-wise descent
// (index.LevelWise): probes are sorted, duplicates share one descent, and
// the batch crosses the tree one level at a time, so each node's k-ary
// SIMD search runs once per probe group and the independent node loads
// of different groups overlap in the memory system. All leaves sit at the
// same depth, so the batch reaches them in lockstep.
func (t *Tree[K, V]) GetBatchLevelWise(ks []K, vals []V, found []bool) {
	ev := t.cfg.Evaluator
	index.LevelWise(ks, vals, found, t.root,
		func(n *node[K, V]) bool { return n.leaf() },
		func(n *node[K, V], i int) *node[K, V] {
			return n.children[n.kt.SearchP(ks[i], kary.Prepare(ks[i]), ev)]
		},
		func(n *node[K, V], i int) (v V, ok bool) {
			if pos, found := n.kt.LookupP(ks[i], kary.Prepare(ks[i]), ev); found {
				return n.vals[pos-1], true
			}
			return v, false
		})
}

// GetBatch looks up many keys at once: GetBatchInto into fresh slices.
func (t *Tree[K, V]) GetBatch(ks []K) ([]V, []bool) { return index.GetBatch[K, V](t, ks) }

// ContainsBatch reports presence for many keys at once, in input order.
func (t *Tree[K, V]) ContainsBatch(ks []K) []bool { return index.ContainsBatch[K, V](t, ks) }

// IndexStats summarizes the tree in the structure-independent terms of
// the index layer, projected from Shape.
func (t *Tree[K, V]) IndexStats() index.Stats { return index.StatsOf(t.Shape()) }
