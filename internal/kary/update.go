package kary

import (
	"slices"
	"unsafe"

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
// Lanes move through a typed view of the storage (view); a key crosses
// the realignment only where it enters or leaves the storage.

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
		// A geometry change rebuilds the node in the storage it has, so
		// room a Reserve made is kept.
		t.build(slices.Insert(t.Keys(), pos, x), t.layout, t.data)
		return
	}
	t.resize(int(t.slots.bound[n+1]))
	v, path := t.view(), t.slots.slot[pos:n+1]
	for i := len(path) - 1; i > 0; i-- {
		v[path[i]] = v[path[i-1]]
	}
	keys.PutAt(t.data, t.pos(pos), x)
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
		t.build(slices.Delete(t.Keys(), pos, pos+1), t.layout, nil)
		return
	}
	v, path := t.view(), t.slots.slot[pos:n]
	for i := 1; i < len(path); i++ {
		v[path[i-1]] = v[path[i]]
	}
	t.n--
	t.resize(int(t.slots.bound[t.n]))
	if pos == t.n {
		t.setMax()
	} else if t.pos(t.n) < t.stored {
		v := t.view() // the vacated slot becomes a pad
		v[t.pos(t.n)] = v[t.pos(t.n-1)]
	}
}

// ReplaceAt overwrites the key at sorted index pos with x in place. The
// caller guarantees x keeps the order: above the key before pos and
// below the key after it. Replacing the last key sets S_max and its pads.
func (t *Tree[K]) ReplaceAt(pos int, x K) {
	if invariants.Enabled {
		invariants.Assertf(pos >= 0 && pos < t.n && (pos == 0 || t.At(pos-1) < x) && (pos == t.n-1 || x < t.At(pos+1)),
			"kary: ReplaceAt(%d, %v) breaks the key order", pos, x)
	}
	keys.PutAt(t.data, t.pos(pos), x)
	if pos == t.n-1 {
		t.setMax()
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
	old := t.stored
	t.stored = need
	if old < need {
		keys.PutAt(t.data, old, t.smax)
		pads := t.view()[old:]
		pad := pads[0]
		for i := range pads {
			pads[i] = pad
		}
	}
}

// sizeClassed returns n zero bytes whose capacity is the allocator's size
// class for n. Go rounds every small allocation up to its class, so the
// spare bytes cost no heap; keeping them lets later growth stay in place.
// Growth of a nil slice is never more than the class, unlike append's
// doubling.
func sizeClassed(n int) []byte { return append([]byte(nil), make([]byte, n)...) }

// setMax takes the key at the last sorted position as S_max and copies
// it into every pad, the stored slots of the sorted positions from n on
// (§3.3). The slot map lists those pads per key count, so an append
// visits only the handful of slots it rewrites.
//
//simdtree:hotpath
func (t *Tree[K]) setMax() {
	v, top := t.view(), t.pos(t.n-1)
	t.smax = keys.GetAt[K](t.data, top)
	pad := v[top]
	for _, p := range t.slots.pads(t.n) {
		if int(p) < len(v) {
			v[p] = pad
		}
	}
}

// view is the key storage as one K per stored slot. Its elements are the
// realigned lanes, not keys: the in-place updates only copy them, and a
// key enters or leaves the storage through keys.PutAt and keys.GetAt. A
// K is exactly its lane's width, so each lane moves with one typed load
// and store. The view is sound because every storage comes from
// sizeClassed and is a whole number of 16-byte registers: an allocation
// of at least 16 bytes gets a size class, whose objects sit at multiples
// of the class size (a multiple of 8) from a page-aligned span, or a large
// object's own pages. So the storage starts 8-byte aligned and holds a
// whole number of lanes. The view's bounds checks keep every slot an
// update touches below stored.
//
//simdtree:hotpath
func (t *Tree[K]) view() []K {
	p := unsafe.SliceData(t.data)
	if invariants.Enabled {
		invariants.Assertf(uintptr(unsafe.Pointer(p))%8 == 0, "kary: key storage at %p is not 8-byte aligned", p)
		invariants.Assertf(len(t.data) == t.stored*keys.Width[K](),
			"kary: %d storage bytes for %d stored slots", len(t.data), t.stored)
	}
	return unsafe.Slice((*K)(unsafe.Pointer(p)), t.stored)
}

// Contains reports whether x is present.
func (t *Tree[K]) Contains(x K) bool {
	_, found := t.Lookup(x, padEvaluator)
	return found
}
