package segtrie

import "repro/internal/shape"

// Shape introspection for both trie variants. Trie nodes store one-byte
// partial keys in 17-ary trees, so slots cost one byte and a register
// holds sixteen partial keys; the optimized variant additionally
// reports its §4 level omission: every stored prefix byte is one trie
// level whose node search was compressed away.

// plainNodeBytes is what one omitted level would cost as a materialized
// plain-trie node: a single-key 17-ary tree stores 16 one-byte slots
// (one full register, §3.3-replenished) plus one eight-byte child
// pointer. The optimized trie stores one prefix byte instead, so each
// omitted level saves plainNodeBytes − 1 bytes.
const plainNodeBytes = 16 + 8

// Shape implements shape.Shaper: one shape node per trie node at its
// fixed level (height is invariant at r = m/8, §4). The byte split is
// the accounting IndexStats projects: real partial keys and
// replenishment pads cost one byte, child and value pointers eight
// bytes.
func (t *Trie[K, V]) Shape() shape.Report {
	rep := shape.New("segtrie")
	rep.Keys = t.size
	rep.Levels = t.levels
	var walk func(n *node[V], level int)
	walk = func(n *node[V], level int) {
		n.kt.ShapeNode(&rep, level, 0)
		if level == t.levels-1 {
			rep.PointerBytes += int64(len(n.vals)) * 8
			return
		}
		rep.PointerBytes += int64(len(n.children)) * 8
		for _, c := range n.children {
			walk(c, level+1)
		}
	}
	walk(t.root, 0)
	return rep.Finalize()
}

// Shape implements shape.Shaper for the optimized Seg-Trie: shape
// levels are node depths on the compressed structure (the paper's lazy
// expansion makes the stored height much smaller than r), and the §4
// omission shows up as OmittedLevels/PrefixBytes with the measured
// byte saving against materializing those levels as plain single-key
// nodes. Partial keys, pads and prefix bytes cost one byte, pointers
// eight.
func (t *Optimized[K, V]) Shape() shape.Report {
	rep := shape.New("opt-segtrie")
	rep.Keys = t.size
	if t.root == nil {
		return rep.Finalize()
	}
	var walk func(n *onode[V], depth int)
	walk = func(n *onode[V], depth int) {
		if depth+1 > rep.Levels {
			rep.Levels = depth + 1
		}
		n.kt.ShapeNode(&rep, depth, 0)
		rep.KeyBytes += int64(len(n.prefix))
		rep.OmittedLevels += len(n.prefix)
		rep.PrefixBytes += len(n.prefix)
		if n.last() {
			rep.PointerBytes += int64(len(n.vals)) * 8
			return
		}
		rep.PointerBytes += int64(len(n.children)) * 8
		for _, c := range n.children {
			walk(c, depth+1)
		}
	}
	walk(t.root, 0)
	rep.OmittedSavingsBytes = int64(rep.OmittedLevels) * (plainNodeBytes - 1)
	return rep.Finalize()
}
