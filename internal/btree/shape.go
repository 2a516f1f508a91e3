package btree

import (
	"repro/internal/keys"
	"repro/internal/shape"
)

// Shape implements shape.Shaper for the scalar baseline. A node's slots
// are its configured capacity (LeafCap or BranchCap) — the classic
// B-Tree fill-factor denominator — while the byte accounting IndexStats
// projects counts only the keys actually stored (§5.1: keys at their
// width, pointers at eight bytes). The baseline performs no SIMD loads,
// so registers, padding and replenishment are all zero — the contrast
// the adapted trees' reports are read against.
func (t *Tree[K, V]) Shape() shape.Report {
	rep := shape.New("btree")
	rep.Keys = t.size
	rep.Levels = t.Height()
	w := int64(keys.Width[K]())
	var walk func(n *node[K, V], depth int)
	walk = func(n *node[K, V], depth int) {
		rep.KeyBytes += int64(len(n.keys)) * w
		if n.leaf() {
			rep.Node(depth, len(n.keys), t.cfg.LeafCap)
			rep.PointerBytes += int64(len(n.keys)) * 8
			return
		}
		rep.Node(depth, len(n.keys), t.cfg.BranchCap)
		rep.PointerBytes += int64(len(n.children)) * 8
		for _, c := range n.children {
			walk(c, depth+1)
		}
	}
	walk(t.root, 0)
	return rep.Finalize()
}
