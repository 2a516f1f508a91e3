package segtrie

import (
	"fmt"

	"repro/internal/keys"
)

// Ordered reads and validation, one walk for both level policies.

// Min returns the smallest key and its value; ok is false when empty.
func (t *Trie[K, V]) Min() (K, V, bool) { return t.edge(false) }

// Max returns the largest key and its value; ok is false when empty.
func (t *Trie[K, V]) Max() (K, V, bool) { return t.edge(true) }

// edge follows every node's first partial key, or its last when max is
// set, down to a value.
func (t *Trie[K, V]) edge(max bool) (k K, v V, ok bool) {
	var u uint64
	for n, level := t.root, 0; n != nil; level++ {
		for _, p := range n.prefix {
			u = u<<8 | uint64(p)
			level++
		}
		i := 0
		if max {
			i = n.kt.Len() - 1
		}
		u = u<<8 | uint64(n.kt.At(i))
		if level == t.levels-1 {
			return keys.FromOrderedBits[K](u), n.vals[i], true
		}
		n = n.children[i]
	}
	return k, v, false
}

// Ascend calls fn for every item in ascending key order until fn returns
// false: a scan over the whole key domain.
func (t *Trie[K, V]) Ascend(fn func(K, V) bool) {
	if t.root != nil {
		t.scan(t.root, 0, 0, 0, ^uint64(0), fn)
	}
}

// Scan calls fn for every item with lo ≤ key ≤ hi in ascending key order
// until fn returns false, pruning subtrees outside the range.
func (t *Trie[K, V]) Scan(lo, hi K, fn func(K, V) bool) {
	if lo <= hi && t.root != nil {
		t.scan(t.root, 0, 0, keys.OrderedBits(lo), keys.OrderedBits(hi), fn)
	}
}

// scan walks n, entered at level with the segments above it in prefix,
// over the ordered-bits range [lo, hi].
func (t *Trie[K, V]) scan(n *node[V], level int, prefix, lo, hi uint64, fn func(K, V) bool) bool {
	for _, p := range n.prefix {
		prefix = prefix<<8 | uint64(p)
		level++
	}
	rem := uint(8 * (t.levels - 1 - level))
	for i := range n.kt.Len() {
		u := prefix<<8 | uint64(n.kt.At(i))
		// The subtree below u covers [u<<rem, (u<<rem)|maxFill].
		min := u << rem
		max := min | (uint64(1)<<rem - 1)
		if max < lo {
			continue
		}
		if min > hi {
			return true
		}
		if level == t.levels-1 {
			if !fn(keys.FromOrderedBits[K](u), n.vals[i]) {
				return false
			}
		} else if !t.scan(n.children[i], level+1, u, lo, hi, fn) {
			return false
		}
	}
	return true
}

// Validate checks the structural invariants: per-node kary invariants,
// no node stamped by a later write than the trie's, no empty node, level arithmetic (every root-to-value path consumes
// exactly Levels segments), children or values parallel to the partial
// keys, a size that matches the stored keys, and the level policy's rule
// — no prefix in the plain trie, at least two keys in every inner node
// of the optimized one.
func (t *Trie[K, V]) Validate() error {
	count := 0
	var walk func(n *node[V], level int) error
	walk = func(n *node[V], level int) error {
		if err := n.kt.Validate(); err != nil {
			return fmt.Errorf("segtrie: level %d: %w", level, err)
		}
		if n.gen > t.gen {
			return fmt.Errorf("segtrie: level %d: node stamped %d in a trie at gen %d", level, n.gen, t.gen)
		}
		if !t.omit && len(n.prefix) > 0 {
			return fmt.Errorf("segtrie: plain trie node at level %d has a %d-byte prefix", level, len(n.prefix))
		}
		level += len(n.prefix)
		switch {
		case n.kt.Len() == 0:
			return fmt.Errorf("segtrie: empty node at level %d", level)
		case level >= t.levels:
			return fmt.Errorf("segtrie: node at level %d of %d", level, t.levels)
		case level == t.levels-1:
			if len(n.vals) != n.kt.Len() {
				return fmt.Errorf("segtrie: level %d: %d keys but %d values", level, n.kt.Len(), len(n.vals))
			}
			if n.children != nil {
				return fmt.Errorf("segtrie: last-level node with children")
			}
			count += n.kt.Len()
			return nil
		case n.vals != nil:
			return fmt.Errorf("segtrie: inner node with values at level %d of %d", level, t.levels)
		case len(n.children) != n.kt.Len():
			return fmt.Errorf("segtrie: level %d: %d keys but %d children", level, n.kt.Len(), len(n.children))
		case t.omit && n.kt.Len() < 2:
			return fmt.Errorf("segtrie: inner node with %d keys not compressed away", n.kt.Len())
		}
		for _, c := range n.children {
			if err := walk(c, level+1); err != nil {
				return err
			}
		}
		return nil
	}
	if t.root != nil {
		if err := walk(t.root, 0); err != nil {
			return err
		}
	}
	if count != t.size {
		return fmt.Errorf("segtrie: size %d but %d keys present", t.size, count)
	}
	return nil
}
