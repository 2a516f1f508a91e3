package index

import (
	"math"

	"repro/internal/keys"
)

// Cursors exposes the interleaved descent's window to the external test
// package, whose batch-parity sizes straddle it.
const Cursors = cursors

// PublishStride exposes the publish timer's sampling stride.
const PublishStride = publishStride

// NewVersionedSlots is NewVersioned with n epoch slots (n a power of two)
// in place of the GOMAXPROCS-derived count, so tests can reach slot
// arrays wider than one claimed word.
func NewVersionedSlots[K keys.Key, V any](n int, newIndex func() Index[K, V]) *Versioned[K, V] {
	x := NewVersioned(newIndex)
	x.readers = newReaderSlots(n, 1)
	return x
}

// NewShardedSlots is NewSharded over a reader-slot array of n slots (n
// a power of two) in place of the GOMAXPROCS-derived count.
func NewShardedSlots[K keys.Key, V any](shards, n int, newIndex func() Index[K, V]) *Sharded[K, V] {
	s := NewSharded(shards, newIndex)
	s.readers = newReaderSlots(n, shards)
	for _, sh := range s.shards {
		sh.readers = s.readers
	}
	return s
}

// SharesOneSlotArray reports whether every shard of s announces in the
// index's one reader-slot array: the same backing array, mask and
// claimed word.
func SharesOneSlotArray[K keys.Key, V any](s *Sharded[K, V]) bool {
	for _, sh := range s.shards {
		r := sh.readers
		if &r.slots[0] != &s.readers.slots[0] || len(r.slots) != len(s.readers.slots) ||
			r.mask != s.readers.mask || r.claimed != s.readers.claimed {
			return false
		}
	}
	return true
}

// Shard returns shard i of s, so tests can pin one shard's version
// through the slot array all shards share.
func Shard[K keys.Key, V any](s *Sharded[K, V], i int) *Versioned[K, V] { return s.shards[i] }

// OccupyEpochSlots marks every epoch slot of x except free busy, with a
// word that announces no shard's sequence (the wildcard tag with no
// sequences behind it) and without claiming them, so the next reader
// probes its way to free. The returned function frees them.
func OccupyEpochSlots[K keys.Key, V any](x *Versioned[K, V], free int) (release func()) {
	slots := x.readers.slots
	for i := range slots {
		if i != free {
			slots[i].epoch.Store(math.MaxUint64)
		}
	}
	return func() {
		for i := range slots {
			if i != free {
				slots[i].epoch.Store(0)
			}
		}
	}
}
