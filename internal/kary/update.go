package kary

import (
	"slices"

	"repro/internal/bitmask"
	"repro/internal/invariants"
	"repro/internal/keys"
)

// padEvaluator is the evaluator used for internal maintenance searches;
// Popcount is the paper's overall winner (§5.2).
const padEvaluator = bitmask.Popcount

// Data-manipulation operations (§3.2). The paper re-sorts and
// re-linearizes a node's keys on every insert that is not an append. Here
// the keys always occupy sorted positions 0 … n−1 of the geometry's slot
// map, so while the geometry holds, an insert or delete moves just the
// keys above the changed position one sorted position along the map, in
// place; an append moves none. Pads are rewritten only when the maximum
// changes and depth-first storage follows Build's truncation, so the
// bytes equal a fresh Build's. Only a geometry change rebuilds the node.

// Insert adds x to the tree, reporting whether it was absent.
func (t *Tree[K]) Insert(x K) bool {
	rank, found := t.Lookup(x, padEvaluator)
	if !found {
		t.InsertAt(rank, x)
	}
	return !found
}

// InsertAt adds x at sorted index pos. The caller guarantees what Lookup
// reports for an absent key: x is not in the tree and pos is its rank.
func (t *Tree[K]) InsertAt(pos int, x K) {
	n := t.n
	if invariants.Enabled {
		invariants.Assertf(pos >= 0 && pos <= n && (pos == 0 || t.At(pos-1) < x) && (pos == n || x < t.At(pos)),
			"kary: InsertAt(%d, %v) is not the rank of an absent key", pos, x)
	}
	if t.slots == nil || n == len(t.slots.slot) {
		t.build(slices.Insert(t.Keys(), pos, x), t.layout)
		return
	}
	sl := t.slots.slot
	t.resize(int(t.slots.bound[n+1]))
	for s := n; s > pos; s-- {
		moveLane[K](t.data, sl[s], sl[s-1])
	}
	keys.PutAt(t.data, int(sl[pos]), x)
	t.n++
	if pos == n {
		t.setMax()
	}
}

// Delete removes x from the tree, reporting whether it was present.
func (t *Tree[K]) Delete(x K) bool {
	rank, found := t.Lookup(x, padEvaluator)
	if found {
		t.DeleteAt(rank - 1)
	}
	return found
}

// DeleteAt removes the key at sorted index pos, which must be in [0, Len()).
func (t *Tree[K]) DeleteAt(pos int) {
	n := t.n
	if n-1 < t.slots.minN {
		t.build(slices.Delete(t.Keys(), pos, pos+1), t.layout)
		return
	}
	sl := t.slots.slot
	for s := pos; s < n-1; s++ {
		moveLane[K](t.data, sl[s], sl[s+1])
	}
	t.n--
	t.resize(int(t.slots.bound[t.n]))
	if pos == t.n {
		t.setMax()
	} else if sl[t.n] < int32(t.stored) {
		moveLane[K](t.data, sl[t.n], sl[t.n-1]) // the vacated slot becomes a pad
	}
}

// resize sets the storage to need slots. Slots added at the end start as
// pads; a shrink keeps the array for a later regrowth, and a growth
// replaces it only once the allocator's size class is used up.
func (t *Tree[K]) resize(need int) {
	w := int(t.w)
	if need*w > cap(t.data) {
		grown := sizeClassed(need * w)
		copy(grown, t.data)
		t.data = grown
	}
	t.data = t.data[:need*w]
	for p := t.stored; p < need; p++ {
		keys.PutAt(t.data, p, t.smax)
	}
	t.stored = need
}

// sizeClassed returns n zero bytes whose capacity is the allocator's size
// class for n. Go rounds every small allocation up to its class, so the
// spare bytes cost no heap; keeping them lets later growth stay in place.
// Growth of a nil slice is never more than the class, unlike append's
// doubling.
func sizeClassed(n int) []byte { return append([]byte(nil), make([]byte, n)...) }

// setMax takes the key at the last sorted position as S_max and copies
// it into every pad, the stored slots of the sorted positions from n on
// (§3.3).
func (t *Tree[K]) setMax() {
	top := t.slots.slot[t.n-1]
	t.smax = keys.GetAt[K](t.data, int(top))
	for _, p := range t.slots.slot[t.n:] {
		if p < int32(t.stored) {
			moveLane[K](t.data, p, top)
		}
	}
}

// moveLane copies the raw lane bytes of slot src to slot dst.
func moveLane[K keys.Key](data []byte, dst, src int32) {
	w := keys.Width[K]()
	copy(data[int(dst)*w:][:w], data[int(src)*w:][:w])
}

// Contains reports whether x is present.
func (t *Tree[K]) Contains(x K) bool {
	_, found := t.Lookup(x, padEvaluator)
	return found
}
