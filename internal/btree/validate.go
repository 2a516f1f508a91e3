package btree

import (
	"fmt"

	"repro/internal/keys"
	"repro/internal/shape"
)

// Validate checks every structural invariant of the tree: each key
// store's own invariants, uniform leaf depth, node fill bounds (root
// exempt), separator fences, an intact leaf chain, and a consistent size
// counter. It returns the first violation found.
func (t *Skeleton[K, V, S, PS]) Validate() error {
	type bound struct {
		has bool
		key K
	}
	name := t.spec.Name
	leafDepth := -1
	var prevLeaf *node[K, V, S, PS]
	keyCount := 0

	var walk func(n *node[K, V, S, PS], depth int, lo, hi bound) error
	walk = func(n *node[K, V, S, PS], depth int, lo, hi bound) error {
		ks := n.keys()
		if err := ks.Validate(); err != nil {
			return fmt.Errorf("%s: node at depth %d: %w", name, depth, err)
		}
		nk := ks.Len()
		if nk > 0 {
			if lo.has && ks.At(0) < lo.key {
				return fmt.Errorf("%s: key below lower fence at depth %d", name, depth)
			}
			if hi.has && ks.At(nk-1) >= hi.key {
				return fmt.Errorf("%s: key at or above upper fence at depth %d", name, depth)
			}
		}
		if n.leaf() {
			if nk != len(n.vals) {
				return fmt.Errorf("%s: leaf with %d keys but %d values", name, nk, len(n.vals))
			}
			if leafDepth == -1 {
				leafDepth = depth
			} else if depth != leafDepth {
				return fmt.Errorf("%s: leaves at depths %d and %d", name, leafDepth, depth)
			}
			if n != t.root && nk < t.spec.LeafCap/2 {
				return fmt.Errorf("%s: leaf underflow (%d keys)", name, nk)
			}
			if nk > t.spec.LeafCap {
				return fmt.Errorf("%s: leaf overflow (%d keys)", name, nk)
			}
			if prevLeaf != nil && prevLeaf.next != n {
				return fmt.Errorf("%s: broken leaf chain", name)
			}
			prevLeaf = n
			keyCount += nk
			return nil
		}
		if len(n.children) != nk+1 {
			return fmt.Errorf("%s: branch with %d keys and %d children", name, nk, len(n.children))
		}
		if n != t.root && nk < t.spec.BranchCap/2 {
			return fmt.Errorf("%s: branch underflow (%d keys)", name, nk)
		}
		if nk > t.spec.BranchCap {
			return fmt.Errorf("%s: branch overflow (%d keys)", name, nk)
		}
		if n == t.root && nk == 0 {
			return fmt.Errorf("%s: branch root without keys", name)
		}
		for i, c := range n.children {
			clo, chi := lo, hi
			if i > 0 {
				clo = bound{true, ks.At(i - 1)}
			}
			if i < nk {
				chi = bound{true, ks.At(i)}
			}
			if err := walk(c, depth+1, clo, chi); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(t.root, 1, bound{}, bound{}); err != nil {
		return err
	}
	if keyCount != t.size {
		return fmt.Errorf("%s: size %d but %d keys present", name, t.size, keyCount)
	}
	// The leaf chain must start at first and end after the rightmost leaf.
	n := t.root
	for !n.leaf() {
		n = n.children[0]
	}
	if n != t.first {
		return fmt.Errorf("%s: first does not point at the leftmost leaf", name)
	}
	if prevLeaf != nil && prevLeaf.next != nil {
		return fmt.Errorf("%s: rightmost leaf has a successor", name)
	}
	return nil
}

// Shape implements shape.Shaper: one shape node per B+-Tree node, level 0
// at the root. Each key store tallies its own slots, registers and
// padding (ShapeNode); the byte split is the §5.1 accounting IndexStats
// projects: real keys cost the key width, child and value pointers eight
// bytes.
func (t *Skeleton[K, V, S, PS]) Shape() shape.Report {
	rep := shape.New(t.spec.Name)
	rep.Keys = t.size
	rep.Levels = t.Height()
	w := int64(keys.Width[K]())
	var walk func(n *node[K, V, S, PS], depth int)
	walk = func(n *node[K, V, S, PS], depth int) {
		ks := n.keys()
		rep.KeyBytes += int64(ks.Len()) * w
		if n.leaf() {
			ks.ShapeNode(&rep, depth, t.spec.LeafCap)
			rep.PointerBytes += int64(len(n.vals)) * 8
			return
		}
		ks.ShapeNode(&rep, depth, t.spec.BranchCap)
		rep.PointerBytes += int64(len(n.children)) * 8
		for _, c := range n.children {
			walk(c, depth+1)
		}
	}
	walk(t.root, 0)
	return rep.Finalize()
}
