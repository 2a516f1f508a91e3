package index

import (
	"math"

	"repro/internal/keys"
	"repro/internal/pow2"
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
	n = pow2.CeilCap(n, 1)
	x.slots = make([]epochSlot, n)
	x.slotMask = uint32(n - 1)
	return x
}

// OccupyEpochSlots marks every epoch slot of x except free busy, with a
// sequence no version carries and without claiming them, so the next
// reader probes its way to free. The returned function frees them.
func OccupyEpochSlots[K keys.Key, V any](x *Versioned[K, V], free int) (release func()) {
	for i := range x.slots {
		if i != free {
			x.slots[i].epoch.Store(math.MaxUint64)
		}
	}
	return func() {
		for i := range x.slots {
			if i != free {
				x.slots[i].epoch.Store(0)
			}
		}
	}
}
