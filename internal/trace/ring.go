package trace

import (
	"sync/atomic"

	"repro/internal/pow2"
)

// Ring is a lock-free fixed-capacity ring buffer of completed records —
// descent traces here, request spans in internal/reqtrace. Writers claim
// a slot with one atomic increment and store a pointer; readers snapshot
// without blocking writers. A reader racing a wrapping writer may
// observe a slot mid-overwrite as either the old or the new record —
// both are complete, so the snapshot is always well-formed, merely
// approximate about which N records are "the latest".
//
// The capacity/mask pairing is the repo-wide pow2 idiom the ringmask
// analyzer enforces: cap comes from pow2.CeilCap, every slot index is
// `seq & mask`.
type Ring[T any] struct {
	slots []atomic.Pointer[T]
	mask  uint64
	seq   atomic.Uint64
}

// NewRing returns a ring holding the most recent capacity records,
// rounded up to a power of two (minimum 1).
func NewRing[T any](capacity int) *Ring[T] {
	c := pow2.CeilCap(capacity, 1)
	return &Ring[T]{slots: make([]atomic.Pointer[T], c), mask: uint64(c - 1)}
}

// Cap reports the ring capacity.
func (r *Ring[T]) Cap() int { return len(r.slots) }

// Total reports how many records were ever added, including overwritten
// ones.
func (r *Ring[T]) Total() uint64 { return r.seq.Load() }

// Add stores x, overwriting the oldest entry once the ring is full.
// Storing the pointer publishes x: it must not be mutated afterwards
// (Trace and reqtrace.Span carry //simdtree:published; publishguard
// checks the discipline inside their packages).
func (r *Ring[T]) Add(x *T) {
	i := r.seq.Add(1) - 1
	r.slots[i&r.mask].Store(x)
}

// Drain returns the retained records, newest first, and clears the ring
// — the consume-once form of Snapshot a diagnostics bundle uses so the
// next bundle carries only records captured after this one. A writer
// racing a Drain may slip a record in behind the sweep; it simply waits
// for the next drain.
func (r *Ring[T]) Drain() []*T { return r.newestFirst(true) }

// Snapshot returns the retained records, newest first.
func (r *Ring[T]) Snapshot() []*T { return r.newestFirst(false) }

// newestFirst collects the retained records from the newest backwards,
// clearing each slot it reads when drain is set.
func (r *Ring[T]) newestFirst(drain bool) []*T {
	seq := r.seq.Load()
	n := uint64(len(r.slots))
	if seq < n {
		n = seq
	}
	out := make([]*T, 0, n)
	for i := uint64(0); i < n; i++ {
		slot := &r.slots[(seq-1-i)&r.mask]
		var x *T
		if drain {
			x = slot.Swap(nil)
		} else {
			x = slot.Load()
		}
		if x != nil {
			out = append(out, x)
		}
	}
	return out
}
