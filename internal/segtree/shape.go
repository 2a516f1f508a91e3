package segtree

import (
	"repro/internal/keys"
	"repro/internal/shape"
)

// Shape implements shape.Shaper: one shape node per B+-Tree node, level
// 0 at the root. A node's slots are its k-ary tree's stored slots, so
// fill degree directly exposes the §3.3 replenishment waste; registers
// are the 16-byte loads of the per-node k-ary trees. The byte split is
// the §5.1 accounting IndexStats projects: real keys and replenishment
// pads cost the key width, child and value pointers eight bytes.
func (t *Tree[K, V]) Shape() shape.Report {
	rep := shape.New("segtree")
	rep.Keys = t.size
	rep.Levels = t.Height()
	w := keys.Width[K]()
	var walk func(n *node[K, V], depth int)
	walk = func(n *node[K, V], depth int) {
		nk, stored := n.kt.Len(), n.kt.Stored()
		rep.Node(depth, nk, stored)
		rep.Register(n.kt.RegisterStats())
		rep.KeyBytes += int64(nk * w)
		rep.PaddingBytes += int64((stored - nk) * w)
		rep.ReplenishedSlots += stored - nk
		if n.leaf() {
			rep.PointerBytes += int64(len(n.vals)) * 8
			return
		}
		rep.PointerBytes += int64(len(n.children)) * 8
		for _, c := range n.children {
			walk(c, depth+1)
		}
	}
	walk(t.root, 0)
	return rep.Finalize()
}
