package segtrie

import "repro/internal/shape"

// plainNodeBytes is what one omitted level would cost as a materialized
// plain-trie node: a single-key 17-ary tree stores 16 one-byte slots
// (one full register, §3.3-replenished) plus one eight-byte child
// pointer. The optimized trie stores one prefix byte instead, so each
// omitted level saves plainNodeBytes − 1 bytes.
const plainNodeBytes = 16 + 8

// Shape implements shape.Shaper: one shape node per trie node at its
// depth, so the plain trie reports r = m/8 levels (§4's invariant
// height) and the optimized trie its much smaller stored height. Trie
// nodes store one-byte partial keys in 17-ary trees, so slots cost one
// byte and a register holds sixteen partial keys; child and value
// pointers cost eight bytes. The §4 level omission shows up as
// OmittedLevels/PrefixBytes — every stored prefix byte is one level
// whose node search was compressed away — with the byte saving against
// materializing those levels as plain single-key nodes.
func (t *Trie[K, V]) Shape() shape.Report {
	rep := shape.New(t.name())
	rep.Keys = t.size
	var walk func(n *node[V], depth int)
	walk = func(n *node[V], depth int) {
		rep.Levels = max(rep.Levels, depth+1)
		n.kt.ShapeNode(&rep, depth, 0)
		rep.KeyBytes += int64(len(n.prefix))
		rep.OmittedLevels += len(n.prefix)
		rep.PrefixBytes += len(n.prefix)
		// A node holds children or values, never both.
		rep.PointerBytes += int64(len(n.children)+len(n.vals)) * 8
		for _, c := range n.children {
			walk(c, depth+1)
		}
	}
	if t.root != nil {
		walk(t.root, 0)
	}
	rep.OmittedSavingsBytes = int64(rep.OmittedLevels) * (plainNodeBytes - 1)
	return rep.Finalize()
}
