package kary

import "repro/internal/shape"

// Shape introspection for linearized k-ary trees. A k-ary node is k−1
// keys = one 16-byte SIMD register, so registers and k-ary nodes
// coincide here; replenishment pads (§3.3) hold the S_max value, which
// also appears as the largest real key, so real slots must be identified
// by position (the inverse of the layout transformation), never by
// value.

// realSlots marks which storage slots hold real keys, by applying the
// layout's position transformation to every sorted position.
func (t *Tree[K]) realSlots() []bool {
	real := make([]bool, t.stored)
	for s := 0; s < t.n; s++ {
		real[t.pos(s)] = true
	}
	return real
}

// slotLevels returns the k-ary tree level (0 = root) of every storage
// slot.
func (t *Tree[K]) slotLevels() []int {
	lv := make([]int, t.stored)
	k := int(t.k)
	if t.layout == BreadthFirst {
		// Levels are contiguous regions: level R starts at slot k^R − 1
		// (the left-packed last level of the complete tree starts at
		// exactly k^(r−1) − 1 too).
		for slot := range lv {
			R := 0
			for R+1 < t.r && pow(k, R+1)-1 <= slot {
				R++
			}
			lv[slot] = R
		}
		return lv
	}
	// Depth-first: preorder walk of the perfect tree — a node's k−1 keys,
	// then its k subtrees, each spanning k^(levels−1) − 1 slots.
	// Truncation only removes a trailing pad-only suffix, so the walk just
	// stops at stored.
	lanes := k - 1
	var walk func(start, depth, levels int)
	walk = func(start, depth, levels int) {
		if levels == 0 || start >= t.stored {
			return
		}
		for i := 0; i < lanes && start+i < t.stored; i++ {
			lv[start+i] = depth
		}
		sub := pow(k, levels-1) - 1
		for c := 0; c < k; c++ {
			walk(start+lanes+c*sub, depth+1, levels-1)
		}
	}
	walk(0, 0, t.r)
	return lv
}

// RegisterStats reports the SIMD register loads of the tree's key
// storage: total registers (= k-ary nodes, one 16-byte load each) and
// how many are fully populated with real keys. Used by the structures
// that embed kary trees to aggregate register utilization; it reads the
// geometry's slot map and allocates nothing.
func (t *Tree[K]) RegisterStats() (total, full int) {
	if t.stored == 0 {
		return 0, 0
	}
	lanes := int(t.lanes)
	return t.stored / lanes, t.slots.fullRegisters(t.n, lanes)
}

// ShapeNode tallies the tree as one node of an enclosing structure (a
// Seg-Tree's btree.Store, a Seg-Trie node) at the given depth of rep:
// its stored slots, which make the §3.3 replenishment waste visible in
// the fill degree, its 16-byte register loads, its lane width, and its
// keys and pads at that width. The capacity argument is unused: a k-ary
// node's slots are the ones it stores.
func (t *Tree[K]) ShapeNode(rep *shape.Report, depth, _ int) {
	rep.Node(depth, t.n, t.stored)
	rep.Register(t.RegisterStats())
	rep.Lanes(int(t.w), 1)
	pads := t.stored - t.n
	rep.KeyBytes += int64(t.n * int(t.w))
	rep.PaddingBytes += int64(pads * int(t.w))
	rep.ReplenishedSlots += pads
}

// Shape implements shape.Shaper for a raw linearization: every k-ary
// node is one level-tagged shape node and one register at the tree's
// lane width; padding is the §3.3 replenishment.
func (t *Tree[K]) Shape() shape.Report {
	name := "kary-bf"
	if t.layout == DepthFirst {
		name = "kary-df"
	}
	rep := shape.New(name)
	rep.Keys = t.n
	rep.Levels = t.r
	if t.n == 0 {
		return rep.Finalize()
	}
	lanes := int(t.lanes)
	w := int(t.w)
	real := t.realSlots()
	lv := t.slotLevels()
	for node := 0; node < t.stored/lanes; node++ {
		inNode := 0
		for i := node * lanes; i < (node+1)*lanes; i++ {
			if real[i] {
				inNode++
			}
		}
		rep.Node(lv[node*lanes], inNode, lanes)
		fullReg := 0
		if inNode == lanes {
			fullReg = 1
		}
		rep.Register(1, fullReg)
	}
	rep.Lanes(w, t.stored/lanes)
	rep.KeyBytes = int64(t.n * w)
	rep.PaddingBytes = int64((t.stored - t.n) * w)
	rep.ReplenishedSlots = t.stored - t.n
	return rep.Finalize()
}
