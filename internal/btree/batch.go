package btree

import (
	"repro/internal/index"
	"repro/internal/kary"
)

// The baseline B+-Tree satisfies the module-wide index contract; batched
// lookups run on the shared batch core.
var _ index.Index[uint32, int] = (*Tree[uint32, int])(nil)

// GetBatchInto looks up ks into vals and found, in input order, with the
// shared interleaved descent (index.Interleave) — the binary-search
// counterpart of the Seg-Tree's batched lookup, so batched benchmarks
// compare node searches, not schedules.
func (t *Tree[K, V]) GetBatchInto(ks []K, vals []V, found []bool) {
	index.Interleave(ks, vals, found, t.root, func(n *node[K, V], i int) (next *node[K, V], v V, ok bool) {
		k := ks[i]
		j := kary.UpperBound(n.keys, k)
		if !n.leaf() {
			return n.children[j], v, false
		}
		if j > 0 && n.keys[j-1] == k {
			return nil, n.vals[j-1], true
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
