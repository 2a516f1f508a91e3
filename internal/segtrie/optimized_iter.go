package segtrie

import (
	"fmt"

	"repro/internal/keys"
)

// Ordered reads and validation for the optimized Seg-Trie.

// Min returns the smallest key and its value; ok is false when empty.
func (t *Optimized[K, V]) Min() (k K, v V, ok bool) {
	if t.root == nil {
		return k, v, false
	}
	var u uint64
	n := t.root
	for {
		for _, p := range n.prefix {
			u = u<<8 | uint64(p)
		}
		u = u<<8 | uint64(n.kt.At(0))
		if n.last() {
			return keys.FromOrderedBits[K](u), n.vals[0], true
		}
		n = n.children[0]
	}
}

// Max returns the largest key and its value; ok is false when empty.
func (t *Optimized[K, V]) Max() (k K, v V, ok bool) {
	if t.root == nil {
		return k, v, false
	}
	var u uint64
	n := t.root
	for {
		for _, p := range n.prefix {
			u = u<<8 | uint64(p)
		}
		i := n.kt.Len() - 1
		u = u<<8 | uint64(n.kt.At(i))
		if n.last() {
			return keys.FromOrderedBits[K](u), n.vals[i], true
		}
		n = n.children[i]
	}
}

// Ascend calls fn for every item in ascending key order until fn returns
// false.
func (t *Optimized[K, V]) Ascend(fn func(K, V) bool) {
	if t.root == nil {
		return
	}
	t.owalk(t.root, 0, func(u uint64, v V) bool {
		return fn(keys.FromOrderedBits[K](u), v)
	})
}

func (t *Optimized[K, V]) owalk(n *onode[V], prefix uint64, fn func(uint64, V) bool) bool {
	for _, p := range n.prefix {
		prefix = prefix<<8 | uint64(p)
	}
	for i, pk := range n.kt.Keys() {
		u := prefix<<8 | uint64(pk)
		if n.last() {
			if !fn(u, n.vals[i]) {
				return false
			}
			continue
		}
		if !t.owalk(n.children[i], u, fn) {
			return false
		}
	}
	return true
}

// Scan calls fn for every item with lo ≤ key ≤ hi in ascending key order
// until fn returns false, pruning subtrees outside the range.
func (t *Optimized[K, V]) Scan(lo, hi K, fn func(K, V) bool) {
	if lo > hi || t.root == nil {
		return
	}
	t.oscan(t.root, 0, 0, keys.OrderedBits(lo), keys.OrderedBits(hi), fn)
}

func (t *Optimized[K, V]) oscan(n *onode[V], level int, prefix, lo, hi uint64, fn func(K, V) bool) bool {
	for _, p := range n.prefix {
		prefix = prefix<<8 | uint64(p)
		level++
	}
	rem := uint(8 * (t.levels - 1 - level))
	for i, pk := range n.kt.Keys() {
		u := prefix<<8 | uint64(pk)
		min := u << rem
		max := min | (uint64(1)<<rem - 1)
		if max < lo {
			continue
		}
		if min > hi {
			return true
		}
		if n.last() {
			if !fn(keys.FromOrderedBits[K](u), n.vals[i]) {
				return false
			}
			continue
		}
		if !t.oscan(n.children[i], level+1, u, lo, hi, fn) {
			return false
		}
	}
	return true
}

// Validate checks the structural invariants: per-node kary invariants,
// level arithmetic (every root-to-value path consumes exactly Levels
// segments), the ≥2-keys rule for inner nodes, and a consistent size.
func (t *Optimized[K, V]) Validate() error {
	if t.root == nil {
		if t.size != 0 {
			return fmt.Errorf("segtrie: empty optimized trie with size %d", t.size)
		}
		return nil
	}
	count := 0
	var walk func(n *onode[V], level int) error
	walk = func(n *onode[V], level int) error {
		if err := n.kt.Validate(); err != nil {
			return fmt.Errorf("segtrie: optimized node at level %d: %w", level, err)
		}
		level += len(n.prefix)
		if n.last() {
			if level != t.levels-1 {
				return fmt.Errorf("segtrie: value node at level %d of %d", level, t.levels)
			}
			if len(n.vals) != n.kt.Len() {
				return fmt.Errorf("segtrie: %d keys but %d values", n.kt.Len(), len(n.vals))
			}
			if n.kt.Len() == 0 {
				return fmt.Errorf("segtrie: empty value node")
			}
			count += n.kt.Len()
			return nil
		}
		if level >= t.levels-1 {
			return fmt.Errorf("segtrie: inner node at level %d of %d", level, t.levels)
		}
		if n.kt.Len() < 2 {
			return fmt.Errorf("segtrie: inner node with %d keys not compressed away", n.kt.Len())
		}
		if len(n.children) != n.kt.Len() {
			return fmt.Errorf("segtrie: %d keys but %d children", n.kt.Len(), len(n.children))
		}
		for _, c := range n.children {
			if err := walk(c, level+1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(t.root, 0); err != nil {
		return err
	}
	if count != t.size {
		return fmt.Errorf("segtrie: size %d but %d keys present", t.size, count)
	}
	return nil
}
