package btree

import (
	"slices"

	"repro/internal/invariants"
	"repro/internal/kary"
)

// ForkTo makes dst a fork of t for the write that publishes gen: the
// same root, size and spec, with gen and safe set and no copies yet.
// Nothing of t is written, so t may be a published version. The first
// fork of a tree starts the recycling pool its forks share; each fork
// ages it (index.Recycler.Age).
func (t *Skeleton[K, V, S, PS]) ForkTo(dst *Skeleton[K, V, S, PS], gen, safe uint64) {
	if invariants.Enabled {
		invariants.Assertf(gen > t.gen && safe < gen, "fork for gen %d (safe %d) of a tree at gen %d", gen, safe, t.gen)
	}
	p := t.pool
	if p == nil {
		p = newPool[K, V, S, PS]()
	}
	p.nodes.Age(gen)
	p.vals.Age(gen)
	p.children.Age(gen)
	if dst.pool != p {
		// A header new to the tree; a recycled one holds the spec already.
		dst.spec = t.spec
	}
	dst.root, dst.size, dst.gen, dst.safe, dst.copied, dst.copyAllocs, dst.pool = t.root, t.size, gen, safe, 0, 0, p
}

// Copied reports the number of nodes this fork's writes copied and how
// many of those copies allocated storage.
func (t *Skeleton[K, V, S, PS]) Copied() (nodes, allocated int) { return t.copied, t.copyAllocs }

// own returns n ready for the running write to change: n itself when the
// write created it, else its copy (copyOf). The caller links the result
// in n's place. A tree never forked owns every node, at the cost of one
// stamp comparison; own is small enough to inline.
func (t *Skeleton[K, V, S, PS]) own(n *node[K, V, S, PS]) *node[K, V, S, PS] {
	if n.gen == t.gen {
		return n
	}
	return t.copyOf(n, 0)
}

// ownForInsert is own for a node an insert descends through. A copy of
// the rightmost leaf, the one node appends grow, keeps room for LeafCap
// keys, as a never-forked tree's new rightmost leaf reserves them, so an
// ascending load copies it at one size instead of through every size
// class on its way to full. rightmost reports that n is the last node of
// its level.
func (t *Skeleton[K, V, S, PS]) ownForInsert(n *node[K, V, S, PS], rightmost bool) *node[K, V, S, PS] {
	if n.gen == t.gen {
		return n
	}
	room := 0
	if rightmost && n.leaf() {
		room = t.spec.LeafCap
	}
	return t.copyOf(n, room)
}

// copyOf returns a copy of n stamped with the running write's gen and
// retires n. The copy's key store and value or child array are each
// sized to n's plus one element, or to room keys when that is more
// (CopyCap, index.Arrays.Class), in retired storage of that class when
// some is free. The write's i-th copy first tries the node the last
// write's i-th copy retired, which on a repeated path (appends, or the
// root on any write) has exactly these classes; else it takes its key
// store with a retired node and its array from the pool.
func (t *Skeleton[K, V, S, PS]) copyOf(n *node[K, V, S, PS], room int) *node[K, V, S, PS] {
	p, i := t.pool, t.copied
	kc := n.keys().CopyCap(room)
	vc, cc := p.vals.Class(n.vals, room), p.children.Class(n.children, 0)
	c, reused := p.takeSpare(i, kc, vc, cc, t.safe)
	if !reused {
		var ks, vs, cs bool
		if c, ks = p.nodes.Reuse(kc, t.safe); !ks {
			c = new(node[K, V, S, PS])
		}
		c.vals, vs = p.vals.Reuse(vc, t.safe)
		c.children, cs = p.children.Reuse(cc, t.safe)
		reused = ks && vs && cs
	}
	c.keys().CopyFrom(n.keys(), kc)
	c.vals = p.vals.Copy(c.vals, n.vals, vc)
	c.children = p.children.Copy(c.children, n.children, cc)
	c.gen = t.gen
	if i < len(p.path) {
		if s := p.path[i]; s.node != nil {
			p.retire(s.node, s.gen)
		}
		p.path[i] = spare[K, V, S, PS]{n, t.gen}
	} else {
		p.retire(n, t.gen)
	}
	t.copied++
	if !reused {
		t.copyAllocs++
	}
	return c
}

// takeSpare returns the node the last write's i-th copy retired when no
// reader reaches it and its key store and value and child arrays have
// capacities kc, vc and cc.
func (p *pool[K, V, S, PS]) takeSpare(i, kc, vc, cc int, safe uint64) (*node[K, V, S, PS], bool) {
	if i >= len(p.path) {
		return nil, false
	}
	s := p.path[i]
	if s.node == nil || s.gen > safe || s.node.keys().Cap() != kc || cap(s.node.vals) != vc || cap(s.node.children) != cc {
		return nil, false
	}
	p.path[i] = spare[K, V, S, PS]{}
	return s.node, true
}

// retire hands n, which the running write unlinked, to the pool; a
// tree never forked has none.
func (t *Skeleton[K, V, S, PS]) retire(n *node[K, V, S, PS]) {
	if t.pool != nil {
		t.pool.retire(n, t.gen)
	}
}

// retire records n, which the write stamped gen replaced or dropped,
// its value or child array split off. n itself is left as it is:
// versions below gen may still reach it.
func (p *pool[K, V, S, PS]) retire(n *node[K, V, S, PS], gen uint64) {
	p.nodes.Retire(n, n.keys().Cap(), gen)
	p.vals.Retire(n.vals, gen)
	p.children.Retire(n.children, gen)
}

// owned asserts, under the invariants build, that the running write
// changes only nodes it stamped.
func (t *Skeleton[K, V, S, PS]) owned(ns ...*node[K, V, S, PS]) {
	for _, n := range ns {
		invariants.Assertf(n.gen == t.gen, "write at gen %d changes a node stamped %d", t.gen, n.gen)
	}
}

// Put stores val under key, returning true when the key was newly inserted
// and false when an existing value was replaced. Every node on the path
// changes, so the descent owns each one before entering it.
func (t *Skeleton[K, V, S, PS]) Put(key K, val V) bool {
	var reg kary.Register
	t.root = t.ownForInsert(t.root, true)
	sep, right, added := t.insert(t.root, key, &reg, val, true)
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

// insert descends from the owned node n to the leaf, inserts, and
// propagates splits upward. When n splits, the new right sibling and its
// separator (the smallest key reachable through it) are returned. reg is
// the descent's search register (see node.rank); rightmost reports that
// n is the last node of its level.
func (t *Skeleton[K, V, S, PS]) insert(n *node[K, V, S, PS], key K, reg *kary.Register, val V, rightmost bool) (sep K, right *node[K, V, S, PS], added bool) {
	if invariants.Enabled {
		t.owned(n)
	}
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
		if pos == ks.Len() && rightmost {
			// An append to the rightmost leaf (§3.2 continuous filling):
			// the full leaf stays full and the key starts a new rightmost
			// leaf. A tree never forked gives it room to fill up to
			// LeafCap without regrowing; the key goes in first, so a
			// k-ary store reserves at the lane width its key picks. In a
			// fork the next write copies the leaf with that room
			// (ownForInsert).
			r := t.newNode(nil)
			r.keys().InsertAt(0, key)
			if t.pool == nil {
				r.keys().Reserve(t.spec.LeafCap)
				r.vals = append(make([]V, 0, t.spec.LeafCap), val)
			} else {
				r.vals = []V{val}
			}
			return key, r, true
		}
		// Any other full leaf splits into its first mid keys and the rest.
		vs := slices.Insert(n.vals, pos, val)
		mid := len(vs) / 2
		r := t.newNode(nil)
		ks.SplitInsert(pos, key, mid, r.keys())
		r.vals = append([]V(nil), vs[mid:]...)
		n.vals = vs[:mid]
		return r.keys().At(0), r, true
	}

	pos, _ := n.rank(key, reg, t.spec.Evaluator, nil, false, nil)
	rightmost = rightmost && pos == len(n.children)-1
	c := t.ownForInsert(n.children[pos], rightmost)
	n.children[pos] = c
	sep, right, added = t.insert(c, key, reg, val, rightmost)
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

// Delete removes key, reporting whether it was present. A miss copies
// nothing.
func (t *Skeleton[K, V, S, PS]) Delete(key K) bool {
	var reg kary.Register
	root, removed := t.remove(t.root, key, &reg)
	if !removed {
		return false
	}
	t.root = root
	t.size--
	if !root.leaf() && root.keys().Len() == 0 {
		t.root = root.children[0]
		t.retire(root)
	}
	return true
}

// remove deletes key below n and repairs any child underflow on the way
// back up. It returns the node to link in n's place: n's copy when the
// key was found, n itself otherwise.
func (t *Skeleton[K, V, S, PS]) remove(n *node[K, V, S, PS], key K, reg *kary.Register) (*node[K, V, S, PS], bool) {
	leaf := n.leaf()
	pos, found := n.rank(key, reg, t.spec.Evaluator, nil, leaf, nil)
	if leaf {
		if !found {
			return n, false
		}
		n = t.own(n)
		n.keys().DeleteAt(pos - 1)
		n.vals = slices.Delete(n.vals, pos-1, pos)
		return n, true
	}
	c, removed := t.remove(n.children[pos], key, reg)
	if !removed {
		return n, false
	}
	n = t.own(n)
	n.children[pos] = c
	t.fixChild(n, pos)
	return n, true
}

// minKeys returns the underflow threshold for a node.
func (t *Skeleton[K, V, S, PS]) minKeys(n *node[K, V, S, PS]) int {
	if n.leaf() {
		return t.spec.LeafCap / 2
	}
	return t.spec.BranchCap / 2
}

// fixChild restores the minimum fill of parent.children[i] by borrowing
// from a sibling or merging with one. The parent and the child are
// owned; the sibling that changes is owned here.
func (t *Skeleton[K, V, S, PS]) fixChild(parent *node[K, V, S, PS], i int) {
	child := parent.children[i]
	min := t.minKeys(child)
	if child.keys().Len() >= min {
		return
	}
	if i > 0 && parent.children[i-1].keys().Len() > min {
		parent.children[i-1] = t.own(parent.children[i-1])
		t.borrowFromLeft(parent, i)
		return
	}
	if i+1 < len(parent.children) && parent.children[i+1].keys().Len() > min {
		parent.children[i+1] = t.own(parent.children[i+1])
		t.borrowFromRight(parent, i)
		return
	}
	if i > 0 {
		parent.children[i-1] = t.own(parent.children[i-1])
		t.merge(parent, i-1)
	} else {
		t.merge(parent, 0)
	}
}

// borrowFromLeft moves the left sibling's last key (and value or child)
// to the front of child and updates their separator in the parent: one
// in-place delete, insert and key rewrite. A branch rotates through the
// parent's separator so every separator stays the lower fence of its
// right subtree. All three nodes are owned.
func (t *Skeleton[K, V, S, PS]) borrowFromLeft(parent *node[K, V, S, PS], i int) {
	child, left := parent.children[i], parent.children[i-1]
	if invariants.Enabled {
		t.owned(parent, child, left)
	}
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
// All three nodes are owned.
func (t *Skeleton[K, V, S, PS]) borrowFromRight(parent *node[K, V, S, PS], i int) {
	child, right := parent.children[i], parent.children[i+1]
	if invariants.Enabled {
		t.owned(parent, child, right)
	}
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
// in-place delete. No node is rebuilt. The parent and the left node are
// owned; the right node is only read, then retired.
func (t *Skeleton[K, V, S, PS]) merge(parent *node[K, V, S, PS], j int) {
	left, right := parent.children[j], parent.children[j+1]
	if invariants.Enabled {
		t.owned(parent, left)
	}
	lk, rk, pk := left.keys(), right.keys(), parent.keys()
	merged := lk.Len() + rk.Len()
	if left.leaf() {
		lk.Reserve(merged)
		left.vals = append(left.vals, right.vals...)
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
	t.retire(right)
}

// load fills the empty tree t with the sorted ks and vs: completely
// filled leaves, then branch levels bottom up, each level's last node
// topped up from its left neighbour so that only the root can be
// underfull. Each node's store is built once, from its final keys.
func (t *Skeleton[K, V, S, PS]) load(ks []K, vs []V) {
	if len(ks) == 0 {
		t.root = t.newNode(nil)
		return
	}
	off := 0
	var level []*node[K, V, S, PS]
	var mins []K // mins[i] is the smallest key reachable through level[i]
	for _, end := range runs(len(ks), t.spec.LeafCap, t.spec.LeafCap/2) {
		n := t.newNode(ks[off:end])
		n.vals = append([]V(nil), vs[off:end]...)
		level, mins = append(level, n), append(mins, ks[off])
		off = end
	}
	t.size = len(ks)
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
