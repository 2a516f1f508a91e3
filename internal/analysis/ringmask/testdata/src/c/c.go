// Package c seeds ringmask violations on a generic ring: the analyzer
// must see a Ring[T any] (the shape of trace.Ring) through its
// instantiated receivers, not only non-generic ring types.
package c

import (
	"atomic"
	"pow2"
)

type Ring[T any] struct {
	slots []atomic.Pointer[T]
	mask  uint64
	seq   atomic.Uint64
}

func NewRing[T any](n int) *Ring[T] {
	return &Ring[T]{
		slots: make([]atomic.Pointer[T], n), // want `ring Ring slice assigned without a proven power-of-two capacity`
		mask:  uint64(n - 1),                // want `ring Ring mask assigned a value not provably capacity-1`
	}
}

func (r *Ring[T]) Add(x *T) {
	i := r.seq.Add(1) - 1
	r.slots[i].Store(x) // want `index into ring Ring slice slots is not masked`
}

func (r *Ring[T]) Latest() *T {
	return r.slots[r.seq.Load()-1].Load() // want `index into ring Ring slice slots is not masked`
}

func (r *Ring[T]) resize(n int) {
	c := pow2.CeilCap(n, 1)
	r.slots = make([]atomic.Pointer[T], c)
	r.mask = uint64(n) // want `ring Ring mask assigned a value not provably capacity-1`
}

// slotTable is the Versioned epoch-slot shape with a second slice: the
// mask guards every slice field of its struct, whatever its name, so
// retired must be masked like slots.
type slotTable[T any] struct {
	slots    []atomic.Pointer[T]
	slotMask uint32
	retired  []*T
	cur      atomic.Uint64
}

func (s *slotTable[T]) pin(h uint32) *T {
	return s.slots[h].Load() // want `index into ring slotTable slice slots is not masked`
}

func (s *slotTable[T]) oldest() *T {
	return s.retired[len(s.retired)-1] // want `index into ring slotTable slice retired is not masked`
}
