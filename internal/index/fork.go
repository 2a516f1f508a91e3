package index

import (
	"repro/internal/keys"
	"repro/internal/sizeclass"
)

// Forker is the write interface of the indexes Versioned publishes:
// path copying. A fork is an O(1) copy of an index's header that shares
// every node with it. Each node carries the stamp of the write that
// created it; a write to a fork copies every node with an older stamp
// before it changes it, once, stamps the copy and every node it creates
// with its own gen, and so never writes a node the receiver can reach.
// A tree that is never forked stamps everything 0 and copies nothing.
//
// The nodes a write replaces or drops are retired under its gen: they
// are reachable only from versions below gen. Later writes reuse their
// storage for copies once gen is at or below the safe sequence Fork is
// given. A copy is sized to the node it copies — the allocator size
// class of its length plus one element (Arrays.Class) — and reuses only
// retired storage of that same class, so a live node never carries the
// slack of a larger recycled array, and in steady state a write
// allocates nothing for its copies.
type Forker[K keys.Key, V any] interface {
	Index[K, V]
	// Fork returns a writable fork of the index for the write that will
	// publish sequence gen. Retired nodes whose gen is at or below safe
	// may be reused: the caller guarantees no reader reaches them. dst,
	// when it is a fork of the same index that no reader can reach any
	// more, lends its header, so the fork allocates nothing; nil asks
	// for a new one.
	Fork(dst Forker[K, V], gen, safe uint64) Forker[K, V]
	// Copied reports the number of nodes this fork's writes copied and
	// how many of those copies allocated storage (a header, key, value
	// or child array) instead of reusing a retired node's.
	Copied() (nodes, allocated int)
}

// recycleCap bounds a Recycler: the items it holds, and the age, in
// writes, at which an item no copy took goes to the collector. A
// shuffled load copies leaves of seven to nine size classes at random,
// so a copy needs a few dozen retired leaves to choose from: a shuffled
// 100,000-key load into a Seg-Tree allocates 23 MB at 16, 14 MB at 32
// and 7.5 MB at 64.
const recycleCap = 64

// Recycler holds up to recycleCap items that writes retired, each with
// its size class and the gen of the write that retired it, and hands the
// oldest item of a requested class back once no reader can reach it.
// Retention follows the writes, not the classes: Age drops the items
// older than recycleCap writes, and a Retire into a full Recycler drops
// the oldest item of its own class, or of any class when its own has
// none, so a node that grew through many classes leaves no array of each
// behind. Items of one size (versions) share class 0. The zero value is
// empty and ready to use; it is writer state.
type Recycler[T any] struct {
	n     int            // items held
	lists []classList[T] // at most one per class, in no order; some empty
	floor uint64         // at or below the gen of every item held
}

// classList is the items of one class, oldest first: retire order is
// gen order. The items are items[head:]; first is the first one's gen,
// kept beside the class so a scan of the lists reads no item.
type classList[T any] struct {
	class int
	first uint64
	head  int
	items []retired[T]
}

// retired is one item a write stopped referencing and the gen of that
// write.
type retired[T any] struct {
	item T
	gen  uint64
}

// Retire records item, of class, which the write stamped gen replaced or
// dropped, after dropping an oldest item when the Recycler is full (see
// Recycler). Gens arrive in ascending order, since one writer runs at a
// time, except for an item a caller held back first (btree's path
// spares): Reuse checks the gen of the item it hands back.
func (r *Recycler[T]) Retire(item T, class int, gen uint64) {
	i := r.find(class)
	if r.n == recycleCap {
		// The class's own oldest item spares a scan of every list.
		j := i
		if j < 0 || r.lists[j].empty() {
			j = r.oldest()
		}
		r.pop(j)
	}
	if i < 0 {
		// A new class takes an empty list, and its buffer, when there
		// is one.
		for i = 0; i < len(r.lists) && !r.lists[i].empty(); i++ {
		}
		if i == len(r.lists) {
			r.lists = append(r.lists, classList[T]{})
		}
		r.lists[i].class = class
	}
	if r.n == 0 || gen < r.floor {
		r.floor = gen
	}
	l := &r.lists[i]
	if l.empty() {
		l.first = gen
	}
	if len(l.items) == cap(l.items) && l.head > 0 {
		// Move the items to the front rather than grow.
		n := copy(l.items, l.items[l.head:])
		clear(l.items[n:])
		l.items, l.head = l.items[:n], 0
	}
	l.items = append(l.items, retired[T]{item, gen})
	r.n++
}

// Age drops the items retired more than recycleCap writes before gen,
// the gen of the running write: storage no copy took in that many
// writes is mostly of classes the tree grew past. A class it empties
// gives up its buffer too. Each write calls it once, so a tree that
// stops writing holds only what its last recycleCap writes retired.
func (r *Recycler[T]) Age(gen uint64) {
	if r.n > 0 && r.floor+recycleCap < gen {
		r.age(gen)
	}
}

// age is Age past the check that some item may be old enough to drop:
// it drops those, and raises floor to the oldest gen still held.
func (r *Recycler[T]) age(gen uint64) {
	r.floor = gen
	for i := range r.lists {
		l := &r.lists[i]
		if l.empty() {
			continue
		}
		for !l.empty() && l.first+recycleCap < gen {
			r.pop(i)
		}
		if l.empty() {
			l.items = nil
		} else {
			r.floor = min(r.floor, l.first)
		}
	}
}

// oldest returns the index of the list whose first item is the oldest
// held. The Recycler must not be empty.
func (r *Recycler[T]) oldest() int {
	o := -1
	for i := range r.lists {
		if !r.lists[i].empty() && (o < 0 || r.lists[i].first < r.lists[o].first) {
			o = i
		}
	}
	return o
}

// Reuse returns the oldest item of class when it was retired at or below
// safe — no reader can reach it — and reports whether there was one.
func (r *Recycler[T]) Reuse(class int, safe uint64) (item T, ok bool) {
	i := r.find(class)
	if i < 0 || r.lists[i].empty() || r.lists[i].first > safe {
		return item, false
	}
	l := &r.lists[i]
	item = l.items[l.head].item
	r.pop(i)
	return item, true
}

// find returns the index of class's list, or -1.
func (r *Recycler[T]) find(class int) int {
	for i := range r.lists {
		if r.lists[i].class == class {
			return i
		}
	}
	return -1
}

// pop drops the oldest item of list i. An emptied list stays, with its
// buffer, for its class or the next new one.
func (r *Recycler[T]) pop(i int) {
	l := &r.lists[i]
	l.items[l.head] = retired[T]{}
	l.head++
	r.n--
	if l.empty() {
		l.items, l.head = l.items[:0], 0
	} else {
		l.first = l.items[l.head].gen
	}
}

func (l *classList[T]) empty() bool { return l.head == len(l.items) }

// Arrays recycles retired arrays of E by their size class. Make one with
// NewArrays: whether E holds pointers changes the class of an array.
type Arrays[E any] struct {
	ring     Recycler[[]E]
	pointers bool
}

// NewArrays returns an empty Arrays.
func NewArrays[E any]() Arrays[E] { return Arrays[E]{pointers: sizeclass.Pointers[E]()} }

// Retire records arr, when it is not nil, which the write stamped gen
// replaced or dropped.
func (a *Arrays[E]) Retire(arr []E, gen uint64) {
	if arr != nil {
		a.ring.Retire(arr, cap(arr), gen)
	}
}

// Age drops the arrays retired more than recycleCap writes before gen
// (Recycler.Age).
func (a *Arrays[E]) Age(gen uint64) { a.ring.Age(gen) }

// Class returns the capacity every path copy of src takes: the
// allocator size class of len(src)+1 elements, so the copy has room for
// the element the running write may add and no more, or of n elements
// when the caller asks for room up to n. A nil src gives 0.
func (a *Arrays[E]) Class(src []E, n int) int {
	if src == nil {
		return 0
	}
	return sizeclass.Elems[E](max(len(src)+1, n), a.pointers)
}

// Reuse returns a retired array of class, retired at or below safe, and
// reports whether there was one; class 0 asks for none and is always
// met.
func (a *Arrays[E]) Reuse(class int, safe uint64) ([]E, bool) {
	if class == 0 {
		return nil, true
	}
	return a.ring.Reuse(class, safe)
}

// Copy returns a copy of src in an array of capacity class (Class):
// dst's when it has that capacity, else a new one. A nil src gives nil.
func (a *Arrays[E]) Copy(dst, src []E, class int) []E {
	if src == nil {
		return nil
	}
	return sizeclass.Copy(dst, src, class, a.pointers)
}
