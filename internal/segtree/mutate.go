package segtree

import (
	"fmt"
	"slices"

	"repro/internal/kary"
	"repro/internal/keys"
	"repro/internal/simd"
)

// setKeys replaces a node's key storage with a fresh linearization — the
// §3.2 reordering step. It touches only this node, the paper's locality
// property.
func (t *Tree[K, V]) setKeys(n *node[K, V], ks []K) {
	n.kt = *kary.BuildUnchecked(ks, t.cfg.Layout)
}

// Put stores val under key, returning true when the key was newly inserted
// and false when an existing value was replaced.
func (t *Tree[K, V]) Put(key K, val V) bool {
	sep, right, added := t.insert(t.root, key, kary.Prepare(key), val)
	if right != nil {
		root := &node[K, V]{children: []*node[K, V]{t.root, right}}
		t.setKeys(root, []K{sep})
		t.root = root
	}
	if added {
		t.size++
	}
	return added
}

// insert descends using k-ary search, inserts at the leaf, and propagates
// splits upward exactly like the baseline B+-Tree — the traversal and
// split/merge machinery is unaffected by the adaption (§3.1). search is
// key's prepared register (kary.Prepare), broadcast once per Put.
func (t *Tree[K, V]) insert(n *node[K, V], key K, search simd.Search, val V) (sep K, right *node[K, V], added bool) {
	ev := t.cfg.Evaluator
	if n.leaf() {
		pos, found := n.kt.LookupP(key, search, ev)
		if found {
			n.vals[pos-1] = val
			return sep, nil, false
		}
		if n.kt.Len() < t.cfg.LeafCap {
			n.kt.InsertAt(pos, key)
			n.vals = slices.Insert(n.vals, pos, val)
			return sep, nil, true
		}
		// A full leaf splits straight from its sorted keys: linearizing
		// the overfull node first would only be thrown away.
		ks := slices.Insert(n.keysWithRoom(), pos, key)
		vs := slices.Insert(n.vals, pos, val)
		mid := len(ks) / 2
		r := &node[K, V]{
			vals: append([]V(nil), vs[mid:]...),
			next: n.next,
		}
		t.setKeys(r, ks[mid:])
		t.setKeys(n, ks[:mid])
		n.vals = vs[:mid]
		n.next = r
		return ks[mid], r, true
	}

	pos := n.kt.SearchP(key, search, ev)
	sep, right, added = t.insert(n.children[pos], key, search, val)
	if right == nil {
		return sep, nil, added
	}
	// sep is the right half's minimum: above every key before pos and
	// below the key at pos.
	if n.kt.Len() < t.cfg.BranchCap {
		n.kt.InsertAt(pos, sep)
		n.children = slices.Insert(n.children, pos+1, right)
		return sep, nil, added
	}
	ks := slices.Insert(n.keysWithRoom(), pos, sep)
	cs := slices.Insert(n.children, pos+1, right)
	mid := len(ks) / 2
	r := &node[K, V]{
		children: append([]*node[K, V](nil), cs[mid+1:]...),
	}
	t.setKeys(r, ks[mid+1:])
	t.setKeys(n, ks[:mid])
	n.children = cs[:mid+1]
	return ks[mid], r, added
}

// keysWithRoom returns n's sorted keys in a slice with room for one more,
// so the key that overflows the node is inserted without a regrowth.
func (n *node[K, V]) keysWithRoom() []K {
	return n.kt.AppendKeys(make([]K, 0, n.kt.Len()+1))
}

// Delete removes key, reporting whether it was present.
func (t *Tree[K, V]) Delete(key K) bool {
	removed := t.remove(t.root, key, kary.Prepare(key))
	if removed {
		t.size--
	}
	if !t.root.leaf() && t.root.kt.Len() == 0 {
		t.root = t.root.children[0]
	}
	return removed
}

func (t *Tree[K, V]) remove(n *node[K, V], key K, search simd.Search) bool {
	ev := t.cfg.Evaluator
	if n.leaf() {
		pos, found := n.kt.LookupP(key, search, ev)
		if !found {
			return false
		}
		n.kt.DeleteAt(pos - 1)
		n.vals = append(n.vals[:pos-1], n.vals[pos:]...)
		return true
	}
	pos := n.kt.SearchP(key, search, ev)
	removed := t.remove(n.children[pos], key, search)
	if removed {
		t.fixChild(n, pos)
	}
	return removed
}

func (t *Tree[K, V]) minKeys(n *node[K, V]) int {
	if n.leaf() {
		return t.cfg.LeafCap / 2
	}
	return t.cfg.BranchCap / 2
}

func (t *Tree[K, V]) fixChild(parent *node[K, V], i int) {
	child := parent.children[i]
	min := t.minKeys(child)
	if child.kt.Len() >= min {
		return
	}
	if i > 0 && parent.children[i-1].kt.Len() > min {
		t.borrowFromLeft(parent, i)
		return
	}
	if i+1 < len(parent.children) && parent.children[i+1].kt.Len() > min {
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
// in-place delete, insert and key rewrite, not three rebuilt nodes.
func (t *Tree[K, V]) borrowFromLeft(parent *node[K, V], i int) {
	child, left := parent.children[i], parent.children[i-1]
	last := left.kt.Len() - 1
	moved := left.kt.At(last)
	left.kt.DeleteAt(last)
	if child.leaf() {
		child.kt.InsertAt(0, moved)
		child.vals = slices.Insert(child.vals, 0, left.vals[last])
		left.vals = slices.Delete(left.vals, last, last+1)
		parent.kt.ReplaceAt(i-1, moved)
		return
	}
	child.kt.InsertAt(0, parent.kt.At(i-1))
	parent.kt.ReplaceAt(i-1, moved)
	lc := len(left.children) - 1
	child.children = slices.Insert(child.children, 0, left.children[lc])
	left.children = slices.Delete(left.children, lc, lc+1)
}

// borrowFromRight moves the right sibling's first key (and value or
// child) to the end of child and updates their separator in the parent.
func (t *Tree[K, V]) borrowFromRight(parent *node[K, V], i int) {
	child, right := parent.children[i], parent.children[i+1]
	moved := right.kt.At(0)
	right.kt.DeleteAt(0)
	if child.leaf() {
		child.kt.InsertAt(child.kt.Len(), moved)
		child.vals = append(child.vals, right.vals[0])
		right.vals = slices.Delete(right.vals, 0, 1)
		parent.kt.ReplaceAt(i, right.kt.At(0))
		return
	}
	child.kt.InsertAt(child.kt.Len(), parent.kt.At(i))
	parent.kt.ReplaceAt(i, moved)
	child.children = append(child.children, right.children[0])
	right.children = slices.Delete(right.children, 0, 1)
}

func (t *Tree[K, V]) merge(parent *node[K, V], j int) {
	left, right := parent.children[j], parent.children[j+1]
	lk := left.kt.Keys()
	rk := right.kt.Keys()
	pk := parent.kt.Keys()
	if left.leaf() {
		left.vals = append(left.vals, right.vals...)
		left.next = right.next
		t.setKeys(left, append(lk, rk...))
	} else {
		lk = append(lk, pk[j])
		t.setKeys(left, append(lk, rk...))
		left.children = append(left.children, right.children...)
	}
	t.setKeys(parent, append(pk[:j], pk[j+1:]...))
	parent.children = append(parent.children[:j+1], parent.children[j+2:]...)
}

// BulkLoad builds a tree from strictly ascending keys and their values,
// filling every node completely — the paper's initial-filling case (§3.2),
// which linearizes each node exactly once. It panics on unsorted or
// duplicate keys or mismatched slice lengths.
func BulkLoad[K keys.Key, V any](cfg Config, ks []K, vs []V) *Tree[K, V] {
	if err := cfg.validate(); err != nil {
		panic(err) //simdtree:allowpanic bulk-load input contract, documented above
	}
	if len(ks) != len(vs) {
		panic(fmt.Sprintf("segtree: %d keys but %d values", len(ks), len(vs))) //simdtree:allowpanic bulk-load input contract, documented above
	}
	for i := 1; i < len(ks); i++ {
		if ks[i-1] >= ks[i] {
			panic(fmt.Sprintf("segtree: bulk-load keys not strictly ascending at index %d", i)) //simdtree:allowpanic bulk-load input contract, documented above
		}
	}
	t := New[K, V](cfg)
	if len(ks) == 0 {
		return t
	}
	t.size = len(ks)

	type part struct {
		keys []K
		node *node[K, V]
	}
	var leaves []part
	for off := 0; off < len(ks); off += cfg.LeafCap {
		end := off + cfg.LeafCap
		if end > len(ks) {
			end = len(ks)
		}
		leaves = append(leaves, part{keys: append([]K(nil), ks[off:end]...)})
		leaves[len(leaves)-1].node = &node[K, V]{
			vals: append([]V(nil), vs[off:end]...),
		}
	}
	// Rebalance the tail so the last leaf never underflows.
	if n := len(leaves); n >= 2 && len(leaves[n-1].keys) < cfg.LeafCap/2 {
		need := cfg.LeafCap/2 - len(leaves[n-1].keys)
		prev, last := &leaves[n-2], &leaves[n-1]
		cut := len(prev.keys) - need
		last.keys = append(append([]K(nil), prev.keys[cut:]...), last.keys...)
		last.node.vals = append(append([]V(nil), prev.node.vals[cut:]...), last.node.vals...)
		prev.keys = prev.keys[:cut]
		prev.node.vals = prev.node.vals[:cut]
	}
	for i := range leaves {
		t.setKeys(leaves[i].node, leaves[i].keys)
		if i+1 < len(leaves) {
			leaves[i].node.next = leaves[i+1].node
		}
	}
	t.first = leaves[0].node

	level := make([]*node[K, V], len(leaves))
	mins := make([]K, len(leaves))
	for i := range leaves {
		level[i] = leaves[i].node
		mins[i] = leaves[i].keys[0]
	}
	for len(level) > 1 {
		fanout := cfg.BranchCap + 1
		var parents []*node[K, V]
		var parentMins []K
		for off := 0; off < len(level); off += fanout {
			end := off + fanout
			if end > len(level) {
				end = len(level)
			}
			p := &node[K, V]{children: append([]*node[K, V](nil), level[off:end]...)}
			t.setKeys(p, mins[off+1:end])
			parents = append(parents, p)
			parentMins = append(parentMins, mins[off])
		}
		// Repair an underfull last branch by shifting children left.
		if n := len(parents); n >= 2 && parents[n-1].kt.Len() < cfg.BranchCap/2 {
			last, prev := parents[n-1], parents[n-2]
			lk := last.kt.Keys()
			pk := prev.kt.Keys()
			for len(lk) < cfg.BranchCap/2 {
				movedMin := pk[len(pk)-1]
				lk = append([]K{parentMins[n-1]}, lk...)
				parentMins[n-1] = movedMin
				pk = pk[:len(pk)-1]
				last.children = append([]*node[K, V]{prev.children[len(prev.children)-1]}, last.children...)
				prev.children = prev.children[:len(prev.children)-1]
			}
			t.setKeys(last, lk)
			t.setKeys(prev, pk)
		}
		level = parents
		mins = parentMins
	}
	t.root = level[0]
	return t
}
