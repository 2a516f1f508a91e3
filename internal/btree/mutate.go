package btree

import (
	"slices"

	"repro/internal/kary"
)

// Put stores val under key, returning true when the key was newly inserted
// and false when an existing value was replaced.
func (t *Skeleton[K, V, S, PS]) Put(key K, val V) bool {
	var reg kary.Register
	sep, right, added := t.insert(t.root, key, &reg, val)
	if right != nil {
		root := t.newNode([]K{sep})
		root.children = []*node[K, V, S, PS]{t.root, right}
		t.root = root
	}
	if added {
		t.size++
	}
	return added
}

// insert descends to the leaf, inserts, and propagates splits upward.
// When the visited child splits, the new right sibling and its separator
// (the smallest key reachable through it) are returned. reg is the
// descent's search register (see node.rank).
func (t *Skeleton[K, V, S, PS]) insert(n *node[K, V, S, PS], key K, reg *kary.Register, val V) (sep K, right *node[K, V, S, PS], added bool) {
	ks := n.keys()
	if n.leaf() {
		pos, found := n.rank(key, reg, t.spec.Evaluator, nil, true, nil)
		if found {
			n.vals[pos-1] = val
			return sep, nil, false
		}
		if ks.Len() < t.spec.LeafCap {
			ks.InsertAt(pos, key)
			n.vals = slices.Insert(n.vals, pos, val)
			return sep, nil, true
		}
		if pos == ks.Len() && n.next == nil {
			// An append to the rightmost leaf (§3.2 continuous filling):
			// the full leaf stays full and the key starts a new rightmost
			// leaf, with room to fill up to LeafCap without regrowing.
			// The key goes in first, so a k-ary store reserves at the
			// lane width its key picks.
			r := t.newNode(nil)
			r.keys().InsertAt(0, key)
			r.keys().Reserve(t.spec.LeafCap)
			r.vals = append(make([]V, 0, t.spec.LeafCap), val)
			n.next = r
			return key, r, true
		}
		// Any other full leaf splits into its first mid keys and the rest.
		vs := slices.Insert(n.vals, pos, val)
		mid := len(vs) / 2
		r := t.newNode(nil)
		ks.SplitInsert(pos, key, mid, r.keys())
		r.vals = append([]V(nil), vs[mid:]...)
		r.next = n.next
		n.vals = vs[:mid]
		n.next = r
		return r.keys().At(0), r, true
	}

	pos, _ := n.rank(key, reg, t.spec.Evaluator, nil, false, nil)
	sep, right, added = t.insert(n.children[pos], key, reg, val)
	if right == nil {
		return sep, nil, added
	}
	// sep is the right half's minimum: above every key before pos and
	// below the key at pos.
	if ks.Len() < t.spec.BranchCap {
		ks.InsertAt(pos, sep)
		n.children = slices.Insert(n.children, pos+1, right)
		return sep, nil, added
	}
	// Of the overflowing keys, the first mid stay and the next moves up:
	// it leaves the right half, which takes the children above it.
	mid := (ks.Len() + 1) / 2
	r := t.newNode(nil)
	ks.SplitInsert(pos, sep, mid, r.keys())
	up := r.keys().At(0)
	r.keys().DeleteAt(0)
	cs := slices.Insert(n.children, pos+1, right)
	r.children = append([]*node[K, V, S, PS](nil), cs[mid+1:]...)
	n.children = cs[:mid+1]
	return up, r, added
}

// Delete removes key, reporting whether it was present.
func (t *Skeleton[K, V, S, PS]) Delete(key K) bool {
	var reg kary.Register
	removed := t.remove(t.root, key, &reg)
	if removed {
		t.size--
	}
	if !t.root.leaf() && t.root.keys().Len() == 0 {
		t.root = t.root.children[0]
	}
	return removed
}

// remove deletes key below n and repairs any child underflow on the way
// back up.
func (t *Skeleton[K, V, S, PS]) remove(n *node[K, V, S, PS], key K, reg *kary.Register) bool {
	leaf := n.leaf()
	pos, found := n.rank(key, reg, t.spec.Evaluator, nil, leaf, nil)
	if leaf {
		if found {
			n.keys().DeleteAt(pos - 1)
			n.vals = slices.Delete(n.vals, pos-1, pos)
		}
		return found
	}
	removed := t.remove(n.children[pos], key, reg)
	if removed {
		t.fixChild(n, pos)
	}
	return removed
}

// minKeys returns the underflow threshold for a node.
func (t *Skeleton[K, V, S, PS]) minKeys(n *node[K, V, S, PS]) int {
	if n.leaf() {
		return t.spec.LeafCap / 2
	}
	return t.spec.BranchCap / 2
}

// fixChild restores the minimum fill of parent.children[i] by borrowing
// from a sibling or merging with one.
func (t *Skeleton[K, V, S, PS]) fixChild(parent *node[K, V, S, PS], i int) {
	child := parent.children[i]
	min := t.minKeys(child)
	if child.keys().Len() >= min {
		return
	}
	if i > 0 && parent.children[i-1].keys().Len() > min {
		t.borrowFromLeft(parent, i)
		return
	}
	if i+1 < len(parent.children) && parent.children[i+1].keys().Len() > min {
		t.borrowFromRight(parent, i)
		return
	}
	if i > 0 {
		t.merge(parent, i-1)
	} else {
		t.merge(parent, 0)
	}
}

// borrowFromLeft moves the left sibling's last key (and value or child)
// to the front of child and updates their separator in the parent: one
// in-place delete, insert and key rewrite. A branch rotates through the
// parent's separator so every separator stays the lower fence of its
// right subtree.
func (t *Skeleton[K, V, S, PS]) borrowFromLeft(parent *node[K, V, S, PS], i int) {
	child, left := parent.children[i], parent.children[i-1]
	ck, lk, pk := child.keys(), left.keys(), parent.keys()
	last := lk.Len() - 1
	moved := lk.At(last)
	lk.DeleteAt(last)
	if child.leaf() {
		ck.InsertAt(0, moved)
		child.vals = slices.Insert(child.vals, 0, left.vals[last])
		left.vals = slices.Delete(left.vals, last, last+1)
		pk.ReplaceAt(i-1, moved)
		return
	}
	ck.InsertAt(0, pk.At(i-1))
	pk.ReplaceAt(i-1, moved)
	lc := len(left.children) - 1
	child.children = slices.Insert(child.children, 0, left.children[lc])
	left.children = slices.Delete(left.children, lc, lc+1)
}

// borrowFromRight moves the right sibling's first key (and value or
// child) to the end of child and updates their separator in the parent.
func (t *Skeleton[K, V, S, PS]) borrowFromRight(parent *node[K, V, S, PS], i int) {
	child, right := parent.children[i], parent.children[i+1]
	ck, rk, pk := child.keys(), right.keys(), parent.keys()
	moved := rk.At(0)
	rk.DeleteAt(0)
	if child.leaf() {
		ck.InsertAt(ck.Len(), moved)
		child.vals = append(child.vals, right.vals[0])
		right.vals = slices.Delete(right.vals, 0, 1)
		pk.ReplaceAt(i, rk.At(0))
		return
	}
	ck.InsertAt(ck.Len(), pk.At(i))
	pk.ReplaceAt(i, moved)
	child.children = append(child.children, right.children[0])
	right.children = slices.Delete(right.children, 0, 1)
}

// merge folds parent.children[j+1] into parent.children[j] and drops the
// right node: the left node's store grows once to the merged size, the
// right node's keys append to it in place (a branch first takes down
// their separator), and the separator leaves the parent with one
// in-place delete. No node is rebuilt.
func (t *Skeleton[K, V, S, PS]) merge(parent *node[K, V, S, PS], j int) {
	left, right := parent.children[j], parent.children[j+1]
	lk, rk, pk := left.keys(), right.keys(), parent.keys()
	merged := lk.Len() + rk.Len()
	if left.leaf() {
		lk.Reserve(merged)
		left.vals = append(left.vals, right.vals...)
		left.next = right.next
	} else {
		lk.Reserve(merged + 1)
		lk.InsertAt(lk.Len(), pk.At(j))
		left.children = append(left.children, right.children...)
	}
	for i := range rk.Len() {
		lk.InsertAt(lk.Len(), rk.At(i))
	}
	pk.DeleteAt(j)
	parent.children = slices.Delete(parent.children, j+1, j+2)
}

// load fills the empty tree t with the sorted ks and vs: completely
// filled leaves, then branch levels bottom up, each level's last node
// topped up from its left neighbour so that only the root can be
// underfull. Each node's store is built once, from its final keys.
func (t *Skeleton[K, V, S, PS]) load(ks []K, vs []V) {
	if len(ks) == 0 {
		t.root = t.newNode(nil)
		t.first = t.root
		return
	}
	off := 0
	var level []*node[K, V, S, PS]
	var mins []K // mins[i] is the smallest key reachable through level[i]
	for _, end := range runs(len(ks), t.spec.LeafCap, t.spec.LeafCap/2) {
		n := t.newNode(ks[off:end])
		n.vals = append([]V(nil), vs[off:end]...)
		if len(level) > 0 {
			level[len(level)-1].next = n
		}
		level, mins = append(level, n), append(mins, ks[off])
		off = end
	}
	t.first, t.size = level[0], len(ks)
	for len(level) > 1 {
		off = 0
		var parents []*node[K, V, S, PS]
		var parentMins []K
		for _, end := range runs(len(level), t.spec.BranchCap+1, t.spec.BranchCap/2+1) {
			p := t.newNode(mins[off+1 : end])
			p.children = append([]*node[K, V, S, PS](nil), level[off:end]...)
			parents, parentMins = append(parents, p), append(parentMins, mins[off])
			off = end
		}
		level, mins = parents, parentMins
	}
	t.root = level[0]
}

// runs cuts n ≥ 0 items into consecutive runs of size and returns their
// ends. When there are several, the last run is topped up to at least
// min items from the one before it.
func runs(n, size, min int) []int {
	var ends []int
	for end := size; end < n; end += size {
		ends = append(ends, end)
	}
	ends = append(ends, n)
	if k := len(ends); k >= 2 && n-ends[k-2] < min {
		ends[k-2] = n - min
	}
	return ends
}
