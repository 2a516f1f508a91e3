// Package e is the shared-cursor fixture: a slot table whose claim word
// is a pointer to an atomic, so copies of the table's header share it
// (the reader-slot array the shards of one index share). It is a ring
// like any other: its construction and its indexes are checked, and a
// struct copy of it is not a slice assignment.
package e

import (
	"atomic"
	"pow2"
)

type slots struct {
	cells   []atomic.Uint64
	claimed *atomic.Uint64
	mask    uint32
}

type claimWord struct {
	bits atomic.Uint64
	_    [15]uint64
}

func newSlots(n int) slots {
	size := pow2.CeilCap(n, 64)
	return slots{cells: make([]atomic.Uint64, size), claimed: &new(claimWord).bits, mask: uint32(size - 1)}
}

func newUnproven(n int) slots {
	return slots{cells: make([]atomic.Uint64, n), claimed: new(atomic.Uint64), mask: uint32(n - 1)} // want `ring slots slice assigned without a proven power-of-two capacity` `ring slots mask assigned a value not provably capacity-1`
}

type shard struct {
	readers slots
}

func newShard(r slots) *shard { return &shard{readers: r} }

func (s *shard) claim(h uint32) *atomic.Uint64 {
	i := h & s.readers.mask
	s.readers.claimed.Or(1 << (i & 63))
	return &s.readers.cells[i]
}

func (s *shard) unmasked(h uint32) *atomic.Uint64 {
	return &s.readers.cells[h] // want `index into ring slots slice cells is not masked`
}
