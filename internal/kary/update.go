package kary

import (
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
// map, so while the geometry and the lane width hold, an insert or delete
// moves just the lanes above the changed position one sorted position
// along the map, in place; an append moves none. Pads are rewritten only
// when the maximum changes and depth-first storage follows Build's
// truncation, so the bytes equal a fresh Build's at the same width and
// base. Only a geometry change, or a key its lanes cannot hold, rebuilds
// the node (rebuild), and that moves lanes too, not a key list. Lanes
// move through a typed view of the storage (lanesOf); a key crosses the
// realignment only where it enters or leaves the storage.

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
	if t.slots == nil || n == len(t.slots.slot) || !t.fits(x) {
		// A geometry change, or a key below the base or past the lane
		// width, rebuilds the node in the storage it has, so room a
		// Reserve made is kept.
		t.rebuild(pos, x, insertKey, t.data)
		return
	}
	t.resize(int(t.slots.bound[n+1]))
	t.shift(t.slots.slot[pos:n+1], true)
	t.setLane(t.pos(pos), keys.OrderedBits(x)-t.base)
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
		var x K
		t.rebuild(pos, x, deleteKey, nil)
		return
	}
	t.shift(t.slots.slot[pos:n], false)
	t.n--
	t.resize(int(t.slots.bound[t.n]))
	if pos == t.n {
		t.setMax()
	} else if p := t.pos(t.n); p < t.stored {
		t.setLane(p, t.lane(t.pos(t.n-1))) // the vacated slot becomes a pad
	}
}

// ReplaceAt overwrites the key at sorted index pos with x in place. The
// caller guarantees x keeps the order: above the key before pos and
// below the key after it. Replacing the last key sets S_max and its pads;
// a key the lanes cannot hold rebuilds the node.
func (t *Tree[K]) ReplaceAt(pos int, x K) {
	if invariants.Enabled {
		invariants.Assertf(pos >= 0 && pos < t.n && (pos == 0 || t.At(pos-1) < x) && (pos == t.n-1 || x < t.At(pos+1)),
			"kary: ReplaceAt(%d, %v) breaks the key order", pos, x)
	}
	if !t.fits(x) {
		t.rebuild(pos, x, replaceKey, t.data)
		return
	}
	t.setLane(t.pos(pos), keys.OrderedBits(x)-t.base)
	if pos == t.n-1 {
		t.setMax()
	}
}

// edit is the change a rebuild applies at its sorted position.
type edit uint8

const (
	insertKey edit = iota
	deleteKey
	replaceKey
)

// rebuildKeys is the most keys a rebuild gathers on the stack: above
// every Table 3 node (404 keys) plus the one an insert adds.
const rebuildKeys = 512

// rebuild re-linearizes the tree with one edit at sorted position pos —
// x inserted there, the key there deleted, or replaced by x — in
// storage's array when it fits (storage may be t's own, or nil for a
// new one). The keys' ordered bits are gathered from the lanes into a
// stack buffer, then written back through reset, at the lane width and
// base the new span fits, exactly as a fresh Build of the edited keys
// lays them out. Up to rebuildKeys keys, no key list is allocated. A
// rebuild keeps the slots storage has room for when a Reserve (or a
// shrink) left it more than a quarter above the bytes the tree stores,
// so a node that a Reserve sized at a narrow width regrows once when it
// widens, not once per size class. A size class adds at most 18 % to
// storage of whole registers up to the largest node (4,112 → 4,864
// bytes; 16 → 16), so a node that only grew is rebuilt at its own size:
// a one-key node at 1-byte lanes does not widen into sixteen 8-byte
// slots.
func (t *Tree[K]) rebuild(pos int, x K, e edit, storage []byte) {
	var buf [rebuildKeys]uint64
	vals := buf[:0]
	if t.n >= rebuildKeys {
		vals = make([]uint64, 0, t.n+1)
	}
	ox := keys.OrderedBits(x)
	for s := 0; s < t.n; s++ {
		if s == pos && e != insertKey {
			if e == replaceKey {
				vals = append(vals, ox)
			}
			continue
		}
		if s == pos {
			vals = append(vals, ox)
		}
		vals = append(vals, t.base+t.lane(t.pos(s)))
	}
	if e == insertKey && pos == t.n {
		vals = append(vals, ox)
	}
	var lo, hi uint64
	if len(vals) > 0 {
		lo, hi = vals[0], vals[len(vals)-1]
	}
	room := 0
	if cap(storage) > len(storage)+len(storage)/4 {
		room = cap(storage) / int(t.w)
	}
	t.reset(t.layout, len(vals), lo, hi, storage, room)
	for s, v := range vals {
		t.setLane(t.pos(s), v-t.base)
	}
}

// resize sets the storage to need slots. Slots added at the end start as
// pads; a shrink keeps the array for a later regrowth, and a growth
// replaces it only once the allocator's size class is used up.
func (t *linear) resize(need int) {
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
		// Write S_max's lane once, then double the copied run.
		t.setLane(old, t.top-t.base)
		pads := t.data[old*w:]
		for i := w; i < len(pads); i *= 2 {
			copy(pads[i:], pads[:i])
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
// its lane into every pad, the stored slots of the sorted positions from
// n on (§3.3). The slot map lists those pads per key count, so an append
// visits only the handful of slots it rewrites.
//
//simdtree:hotpath
func (t *linear) setMax() {
	top := t.pos(t.n - 1)
	t.top = t.base + t.lane(top)
	t.pad(top, t.slots.pads(t.n))
}

// Contains reports whether x is present.
func (t *Tree[K]) Contains(x K) bool {
	_, found := t.Lookup(x, padEvaluator)
	return found
}
