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

// GetBatch looks up many keys with the shared level-wise batch descent:
// probes are sorted, duplicates share one descent, and every 17-ary node
// search runs once per probe group. A missing partial key terminates the
// group's descent above leaf level — the trie's comparison-saving early
// exit (§4) carries over to the batched path. It returns the values and a
// parallel found mask, in input order.
func (t *Trie[K, V]) GetBatch(ks []K) ([]V, []bool) {
	us := make([]uint64, len(ks))
	for i, k := range ks {
		us[i] = keys.OrderedBits(k)
	}
	last := t.levels - 1
	return index.LevelWise[K, V](ks, trieCur[V]{t.root, 0},
		func(c trieCur[V]) bool { return int(c.level) == last },
		func(c trieCur[V], i int) trieCur[V] {
			idx, hit := find(&c.n.kt, t.segment(us[i], int(c.level)), t.cfg.Evaluator, nil, nil)
			if !hit {
				return trieCur[V]{}
			}
			return trieCur[V]{c.n.children[idx], c.level + 1}
		},
		func(c trieCur[V], i int) (v V, ok bool) {
			if idx, hit := find(&c.n.kt, t.segment(us[i], last), t.cfg.Evaluator, nil, nil); hit {
				return c.n.vals[idx], true
			}
			return v, false
		})
}

// ContainsBatch reports presence for many keys at once, in input order.
func (t *Trie[K, V]) ContainsBatch(ks []K) []bool {
	_, found := t.GetBatch(ks)
	return found
}

// IndexStats summarizes the trie in the structure-independent terms of
// the index layer, projected from Shape. Height is the fixed level count
// r = m/8 — the number of node searches a worst-case lookup performs.
func (t *Trie[K, V]) IndexStats() index.Stats { return index.StatsOf(t.Shape()) }

// optCur is one probe group's descent position in an optimized trie.
type optCur[V any] struct {
	n     *onode[V]
	level int32
}

// GetBatch is the optimized-trie batched lookup on the shared level-wise
// engine. One engine step consumes a node's whole compressed prefix plus
// its 17-ary search, so groups advance node by node (not trie level by
// trie level) — value nodes sit at different depths after lazy expansion
// and each group resolves as soon as it reaches one. It returns the
// values and a parallel found mask, in input order.
func (t *Optimized[K, V]) GetBatch(ks []K) ([]V, []bool) {
	us := make([]uint64, len(ks))
	for i, k := range ks {
		us[i] = keys.OrderedBits(k)
	}
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
	return index.LevelWise[K, V](ks, optCur[V]{t.root, 0},
		func(c optCur[V]) bool { return c.n.last() },
		func(c optCur[V], i int) optCur[V] {
			level, ok := matchPrefix(c, us[i])
			if !ok {
				return optCur[V]{}
			}
			idx, hit := find(&c.n.kt, t.segment(us[i], level), t.cfg.Evaluator, nil, nil)
			if !hit {
				return optCur[V]{}
			}
			return optCur[V]{c.n.children[idx], int32(level + 1)}
		},
		func(c optCur[V], i int) (v V, ok bool) {
			level, match := matchPrefix(c, us[i])
			if !match {
				return v, false
			}
			if idx, hit := find(&c.n.kt, t.segment(us[i], level), t.cfg.Evaluator, nil, nil); hit {
				return c.n.vals[idx], true
			}
			return v, false
		})
}

// ContainsBatch reports presence for many keys at once, in input order.
func (t *Optimized[K, V]) ContainsBatch(ks []K) []bool {
	_, found := t.GetBatch(ks)
	return found
}

// IndexStats summarizes the optimized trie in the structure-independent
// terms of the index layer, projected from Shape (which also reports the
// omitted levels). Height is the most nodes on a root-to-value path.
func (t *Optimized[K, V]) IndexStats() index.Stats { return index.StatsOf(t.Shape()) }
