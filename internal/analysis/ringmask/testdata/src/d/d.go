// Package d is the clean generic fixture: a Ring[T any] sized with
// pow2.CeilCap and indexed only through its mask, the way trace.Ring
// is written. Only slotTable's second slice is flagged: the mask guards
// it as well.
package d

import (
	"atomic"
	"pow2"
)

type Ring[T any] struct {
	slots []atomic.Pointer[T]
	mask  uint64
	seq   atomic.Uint64
}

func NewRing[T any](capacity int) *Ring[T] {
	c := pow2.CeilCap(capacity, 1)
	return &Ring[T]{slots: make([]atomic.Pointer[T], c), mask: uint64(c - 1)}
}

func (r *Ring[T]) Add(x *T) {
	i := r.seq.Add(1) - 1
	r.slots[i&r.mask].Store(x)
}

func (r *Ring[T]) Snapshot() []*T {
	seq := r.seq.Load()
	n := uint64(len(r.slots))
	if seq < n {
		n = seq
	}
	out := make([]*T, 0, n)
	for i := uint64(0); i < n; i++ {
		if x := r.slots[(seq-1-i)&r.mask].Load(); x != nil {
			out = append(out, x)
		}
	}
	return out
}

// slotTable is the Versioned epoch-slot shape, written correctly, plus
// a retired list: the mask guards it too, so its unproven sizes are
// flagged.
type slotTable[T any] struct {
	slots    []atomic.Pointer[T]
	slotMask uint32
	retired  []*T
	cur      atomic.Uint64
}

func newSlotTable[T any](n int) *slotTable[T] {
	size := pow2.CeilCap(n, 64)
	s := &slotTable[T]{}
	s.slots = make([]atomic.Pointer[T], size)
	s.slotMask = uint32(size - 1)
	s.retired = make([]*T, 0, n) // want `ring slotTable slice assigned without a proven power-of-two capacity`
	return s
}

func (s *slotTable[T]) pin(h uint32) *T {
	i := h & s.slotMask
	for s.slots[i].Load() != nil {
		i = (i + 1) & s.slotMask
	}
	return s.slots[i].Load()
}

func (s *slotTable[T]) retire(x *T) {
	s.retired = append(s.retired, x) // want `ring slotTable slice assigned without a proven power-of-two capacity`
	s.retired[0] = x
}
