package index

import "repro/internal/keys"

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
// given, so in steady state a write allocates nothing for its copies.
type Forker[K keys.Key, V any] interface {
	Index[K, V]
	// Fork returns a writable fork of the index for the write that will
	// publish sequence gen. Retired nodes whose gen is at or below safe
	// may be reused: the caller guarantees no reader reaches them. dst,
	// when it is a fork of the same index that no reader can reach any
	// more, lends its header, so the fork allocates nothing; nil asks
	// for a new one.
	Fork(dst Forker[K, V], gen, safe uint64) Forker[K, V]
	// Copied reports the number of nodes this fork's writes copied.
	Copied() int
}

// recycleCap bounds a Recycler: a few root-to-leaf paths of the
// module's trees (two of a 64-bit plain Seg-Trie, eight levels each).
// Retired nodes beyond it go to the collector.
const recycleCap = 16

// Recycler holds the retired nodes of one node kind in retire order, up
// to recycleCap of them, and hands the oldest back once no reader can
// reach it. Keeping one per node kind keeps reused storage the right
// size; Versioned keeps one for its superseded versions. The zero value
// is empty and ready to use; it is writer state.
type Recycler[T any] struct {
	ring       [recycleCap]retired[T]
	head, size int
}

// retired is one node a write stopped referencing and the gen of that
// write.
type retired[T any] struct {
	node *T
	gen  uint64
}

// Retire records n, which the write stamped gen replaced or dropped.
// When the ring is full its oldest node goes to the collector. Gens
// arrive in ascending order, since one writer runs at a time.
func (r *Recycler[T]) Retire(n *T, gen uint64) {
	if r.size == recycleCap {
		r.ring[r.head] = retired[T]{}
		r.head = (r.head + 1) % recycleCap
		r.size--
	}
	r.ring[(r.head+r.size)%recycleCap] = retired[T]{n, gen}
	r.size++
}

// Reuse returns the oldest retired node when its gen is at or below
// safe — no reader can reach it — and nil otherwise.
func (r *Recycler[T]) Reuse(safe uint64) *T {
	if r.size == 0 || r.ring[r.head].gen > safe {
		return nil
	}
	e := r.ring[r.head]
	r.ring[r.head] = retired[T]{}
	r.head = (r.head + 1) % recycleCap
	r.size--
	return e.node
}

// Clone returns a copy of src in dst's array when that has room for
// one element more, at dst's full capacity, else in a new array of
// src's capacity; a nil src gives nil. The room covers the element the
// running write may add, and keeping the whole array keeps recycled
// arrays of every size reusable. Elements dst held beyond len(src) are
// cleared, so a reused array keeps no stale pointer alive.
func Clone[T any](dst, src []T) []T {
	if src == nil {
		return nil
	}
	if cap(dst) <= len(src) {
		return append(make([]T, 0, cap(src)), src...)
	}
	if len(dst) > len(src) {
		clear(dst[len(src):])
	}
	return append(dst[:0], src...)
}
