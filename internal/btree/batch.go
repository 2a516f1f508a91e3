package btree

import (
	"repro/internal/index"
	"repro/internal/kary"
)

// The baseline B+-Tree satisfies the module-wide index contract; batched
// lookups run on the shared batch core.
var _ index.Index[uint32, int] = (*Tree[uint32, int])(nil)

// GetBatchInto looks up ks into vals and found, in input order: the
// level-wise descent for batches and trees large enough to gain from it
// (index.Batch), serial Gets otherwise.
func (t *Tree[K, V]) GetBatchInto(ks []K, vals []V, found []bool) {
	index.Batch[K, V](t, ks, vals, found)
}

// GetBatchLevelWise answers ks with the shared level-wise descent
// (index.LevelWise) — the binary-search counterpart of the Seg-Tree's
// batched lookup, used as the baseline in batched benchmarks.
func (t *Tree[K, V]) GetBatchLevelWise(ks []K, vals []V, found []bool) {
	index.LevelWise(ks, vals, found, t.root,
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

// GetBatch looks up many keys at once: GetBatchInto into fresh slices.
func (t *Tree[K, V]) GetBatch(ks []K) ([]V, []bool) { return index.GetBatch[K, V](t, ks) }

// ContainsBatch reports presence for many keys at once, in input order.
func (t *Tree[K, V]) ContainsBatch(ks []K) []bool { return index.ContainsBatch[K, V](t, ks) }

// IndexStats summarizes the tree in the structure-independent terms of
// the index layer, projected from Shape.
func (t *Tree[K, V]) IndexStats() index.Stats { return index.StatsOf(t.Shape()) }
