package index

import (
	"sync/atomic"

	"repro/internal/keys"
	"repro/internal/obs"
	"repro/internal/trace"
)

// Snapshot is a pinned, immutable read view of an index: one tree for a
// Versioned index, one pinned tree per shard for a Sharded one. Every
// read — point lookups, batches, iteration, Shape — runs against exactly
// the versions pinned at acquisition, no matter how far concurrent
// writers advance the live index, and takes no lock doing so.
//
// A Snapshot holds one epoch slot until Release, however many shards it
// pins; forgetting
// to release keeps the pinned trees alive and stops writers from reusing
// the nodes they replace (see Versioned). The handle itself is not safe for
// concurrent use — share the underlying Versioned/Sharded index instead,
// or give each goroutine its own Snapshot.
type Snapshot[K keys.Key, V any] struct {
	// parts holds the pinned trees, one per shard in key order (a single
	// unrouted tree for a Versioned index), and serves every multi-tree
	// read exactly as the live Sharded index does.
	parts[K, V]
	// seqs holds the pinned sequence of each tree, in shard order. A
	// Sharded snapshot's slot points writers at it (a wildcard
	// announcement), so its entries are atomic; they stay fixed once the
	// snapshot is returned.
	seqs     []atomic.Uint64
	slot     *epochSlot
	released bool
}

// The snapshot Get is a zero-allocation hot path; the directive keeps
// the //simdtree:hotpath annotations checked by cmd/simdvet.
//
//simdtree:kernels ^Snapshot\.Get$

// Get returns the value stored under key in the pinned version, if
// present.
//
//simdtree:hotpath
func (s *Snapshot[K, V]) Get(key K) (V, bool) {
	return s.trees[s.partOf(key)].Get(key)
}

// GetTraced is Get additionally returning the lookup's cost and
// recording the descent (and, for sharded snapshots, the tree routed to)
// into tr.
func (s *Snapshot[K, V]) GetTraced(key K, tr *trace.Trace) (V, bool, obs.Cost) {
	i := s.partOf(key)
	if tr != nil && s.sharded {
		tr.Shard(i)
	}
	return s.trees[i].GetTraced(key, tr)
}

// Contains reports whether key is present in the pinned version.
func (s *Snapshot[K, V]) Contains(key K) bool {
	return s.trees[s.partOf(key)].Contains(key)
}

// Seq reports the snapshot's version: the highest pinned sequence number
// across its trees.
func (s *Snapshot[K, V]) Seq() uint64 {
	var top uint64
	for i := range s.seqs {
		top = max(top, s.seqs[i].Load())
	}
	return top
}

// Seqs returns the pinned per-tree sequence numbers (one per shard; a
// single entry unsharded), in shard order.
func (s *Snapshot[K, V]) Seqs() []uint64 {
	out := make([]uint64, len(s.seqs))
	for i := range s.seqs {
		out[i] = s.seqs[i].Load()
	}
	return out
}

// Release unpins the snapshot's versions, letting writers reuse the
// nodes only they reach. Releasing twice is a no-op; using the snapshot
// after Release is a logic error (reads may then observe reused,
// mutating nodes).
func (s *Snapshot[K, V]) Release() {
	if s.released {
		return
	}
	s.released = true
	s.slot.seqs.Store(nil)
	s.slot.epoch.Store(0)
	s.slot = nil
}
