package segtrie

import (
	"repro/internal/index"
	"repro/internal/keys"
)

// Batched lookups for both trie variants, routed through the shared
// level-wise engine (index.LevelWise) so the Seg-Trie exposes the same
// batch surface as the Seg-Tree and the B+-Tree. The engine's node handle
// carries the trie level alongside the node pointer: a probe's depth is
// not derivable from the node alone, and the optimized variant consumes a
// whole run of omitted levels (the stored prefix) in one step.

// Both trie variants satisfy the module-wide index contract.
var (
	_ index.Index[uint32, int] = (*Trie[uint32, int])(nil)
	_ index.Index[uint32, int] = (*Optimized[uint32, int])(nil)
)

// trieCur is one probe group's descent position in a plain Trie.
type trieCur[V any] struct {
	n     *node[V]
	level int32
}

// GetBatchInto looks up ks into vals and found, in input order: the
// level-wise descent for batches and tries large enough to gain from it
// (index.Batch), serial Gets otherwise.
func (t *Trie[K, V]) GetBatchInto(ks []K, vals []V, found []bool) {
	index.Batch[K, V](t, ks, vals, found)
}

// GetBatchLevelWise answers ks with the shared level-wise batch descent:
// probes are sorted, duplicates share one descent, and every 17-ary node
// search runs once per probe group. A missing partial key terminates the
// group's descent above leaf level — the trie's comparison-saving early
// exit (§4) carries over to the batched path.
func (t *Trie[K, V]) GetBatchLevelWise(ks []K, vals []V, found []bool) {
	last := t.levels - 1
	index.LevelWise(ks, vals, found, trieCur[V]{t.root, 0},
		func(c trieCur[V]) bool { return int(c.level) == last },
		func(c trieCur[V], i int) trieCur[V] {
			idx, hit := find(&c.n.kt, t.segment(keys.OrderedBits(ks[i]), int(c.level)), t.cfg.Evaluator, nil, nil)
			if !hit {
				return trieCur[V]{}
			}
			return trieCur[V]{c.n.children[idx], c.level + 1}
		},
		func(c trieCur[V], i int) (v V, ok bool) {
			if idx, hit := find(&c.n.kt, t.segment(keys.OrderedBits(ks[i]), last), t.cfg.Evaluator, nil, nil); hit {
				return c.n.vals[idx], true
			}
			return v, false
		})
}

// GetBatch looks up many keys at once: GetBatchInto into fresh slices.
func (t *Trie[K, V]) GetBatch(ks []K) ([]V, []bool) { return index.GetBatch[K, V](t, ks) }

// ContainsBatch reports presence for many keys at once, in input order.
func (t *Trie[K, V]) ContainsBatch(ks []K) []bool { return index.ContainsBatch[K, V](t, ks) }

// IndexStats summarizes the trie in the structure-independent terms of
// the index layer, projected from Shape. Height is the fixed level count
// r = m/8 — the number of node searches a worst-case lookup performs.
func (t *Trie[K, V]) IndexStats() index.Stats { return index.StatsOf(t.Shape()) }

// optCur is one probe group's descent position in an optimized trie.
type optCur[V any] struct {
	n     *onode[V]
	level int32
}

// GetBatchInto looks up ks into vals and found, in input order: the
// level-wise descent for batches and tries large enough to gain from it
// (index.Batch), serial Gets otherwise.
func (t *Optimized[K, V]) GetBatchInto(ks []K, vals []V, found []bool) {
	index.Batch[K, V](t, ks, vals, found)
}

// GetBatchLevelWise is the optimized-trie batched lookup on the shared
// level-wise engine. One engine step consumes a node's whole compressed
// prefix plus its 17-ary search, so groups advance node by node (not
// trie level by trie level) — value nodes sit at different depths after
// lazy expansion and each group resolves as soon as it reaches one.
func (t *Optimized[K, V]) GetBatchLevelWise(ks []K, vals []V, found []bool) {
	// matchPrefix compares the omitted-level segments; level returns the
	// node's own search level, ok reports a full prefix match.
	matchPrefix := func(c optCur[V], u uint64) (level int, ok bool) {
		level = int(c.level)
		for _, p := range c.n.prefix {
			if t.segment(u, level) != p {
				return level, false
			}
			level++
		}
		return level, true
	}
	index.LevelWise(ks, vals, found, optCur[V]{t.root, 0},
		func(c optCur[V]) bool { return c.n.last() },
		func(c optCur[V], i int) optCur[V] {
			u := keys.OrderedBits(ks[i])
			level, ok := matchPrefix(c, u)
			if !ok {
				return optCur[V]{}
			}
			idx, hit := find(&c.n.kt, t.segment(u, level), t.cfg.Evaluator, nil, nil)
			if !hit {
				return optCur[V]{}
			}
			return optCur[V]{c.n.children[idx], int32(level + 1)}
		},
		func(c optCur[V], i int) (v V, ok bool) {
			u := keys.OrderedBits(ks[i])
			level, match := matchPrefix(c, u)
			if !match {
				return v, false
			}
			if idx, hit := find(&c.n.kt, t.segment(u, level), t.cfg.Evaluator, nil, nil); hit {
				return c.n.vals[idx], true
			}
			return v, false
		})
}

// GetBatch looks up many keys at once: GetBatchInto into fresh slices.
func (t *Optimized[K, V]) GetBatch(ks []K) ([]V, []bool) { return index.GetBatch[K, V](t, ks) }

// ContainsBatch reports presence for many keys at once, in input order.
func (t *Optimized[K, V]) ContainsBatch(ks []K) []bool { return index.ContainsBatch[K, V](t, ks) }

// IndexStats summarizes the optimized trie in the structure-independent
// terms of the index layer, projected from Shape (which also reports the
// omitted levels). Height is the most nodes on a root-to-value path.
func (t *Optimized[K, V]) IndexStats() index.Stats { return index.StatsOf(t.Shape()) }
