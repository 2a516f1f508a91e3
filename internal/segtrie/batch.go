package segtrie

import "repro/internal/index"

// Batched lookups run one Get per probe (index.GetEach). A trie node
// search is cheap enough that the interleaved descent's per-node
// callbacks would cost more than the overlapped node loads save
// (EXPERIMENTS.md, "Batched lookups").

// Both level policies satisfy the module-wide index contract and the
// MVCC layer's path-copying write interface.
var _ index.Forker[uint32, int] = (*Trie[uint32, int])(nil)

// GetBatchInto looks up ks into vals and found, in input order, with one
// Get each.
func (t *Trie[K, V]) GetBatchInto(ks []K, vals []V, found []bool) {
	index.GetEach[K, V](t, ks, vals, found)
}

// GetBatch looks up many keys at once: GetBatchInto into fresh slices.
func (t *Trie[K, V]) GetBatch(ks []K) ([]V, []bool) { return index.GetBatch[K, V](t, ks) }

// ContainsBatch reports presence for many keys at once, in input order.
func (t *Trie[K, V]) ContainsBatch(ks []K) []bool { return index.ContainsBatch[K, V](t, ks) }

// IndexStats summarizes the trie in the structure-independent terms of
// the index layer, projected from Shape (which also reports the omitted
// levels). Height is the most nodes on a root-to-value path: the fixed
// r = m/8 for the plain trie, the stored height for the optimized one.
func (t *Trie[K, V]) IndexStats() index.Stats { return index.StatsOf(t.Shape()) }
