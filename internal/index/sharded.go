package index

import (
	"fmt"

	"repro/internal/keys"
	"repro/internal/obs"
	"repro/internal/trace"
)

// Sharded key-range-partitions a path-copying index (Forker) across a
// fixed number of shards, each an independent Versioned publisher. Writes
// to different key ranges proceed in parallel — what the single global
// lock of concurrent.Locked cannot do — and reads never take a lock at
// all: each read pins its shard's currently published version through
// the MVCC epoch protocol (see Versioned), so a heavy write stream on
// one shard never stalls readers anywhere, including on that shard.
//
// The partition is by key range, not by hash: shard boundaries follow the
// order-preserving bit pattern of the key (keys.OrderedBits), so shard 0
// holds the smallest keys and shard N−1 the largest. Ordered operations
// (Min, Max, Ascend, Scan) therefore visit shards in key order and stay
// ordered overall. Sharded itself satisfies Index.
type Sharded[K keys.Key, V any] struct {
	shards []*Versioned[K, V]
	// parts routes keys to shards (partOf) and serves the multi-shard
	// reads (Len, Min, Max, Ascend, Scan, GetBatchInto, GetBatch,
	// ContainsBatch, IndexStats, Shape) over the same shards.
	parts[K, V]
}

// NewSharded partitions shardCount indexes built by newIndex. Each shard
// must start empty and implement Forker (see NewVersioned); the caller
// must not use the built indexes directly. It panics when shardCount < 1.
func NewSharded[K keys.Key, V any](shardCount int, newIndex func() Index[K, V]) *Sharded[K, V] {
	if shardCount < 1 {
		panic(fmt.Sprintf("index: shard count %d < 1", shardCount)) //simdtree:allowpanic configuration contract, documented above
	}
	s := &Sharded[K, V]{
		shards: make([]*Versioned[K, V], shardCount),
		parts:  newParts(make([]Index[K, V], shardCount), true),
	}
	for i := range s.shards {
		s.shards[i] = NewVersioned(newIndex)
		s.trees[i] = s.shards[i]
	}
	s.live = s.shards
	return s
}

// Shards reports the shard count.
func (s *Sharded[K, V]) Shards() int { return len(s.shards) }

// The untraced sharded Get is a zero-allocation hot path; the directive keeps the
// //simdtree:hotpath annotations checked by cmd/simdvet.
//
//simdtree:kernels ^Sharded\.Get$

// Get returns the value stored under key, if present — lock-free against
// the owning shard's published version.
//
//simdtree:hotpath
func (s *Sharded[K, V]) Get(key K) (V, bool) {
	return s.shards[s.partOf(key)].Get(key)
}

// GetTraced is Get additionally returning the owning shard's lookup cost
// and recording the shard routed to and its descent into tr.
func (s *Sharded[K, V]) GetTraced(key K, tr *trace.Trace) (V, bool, obs.Cost) {
	i := s.partOf(key)
	if tr != nil {
		tr.Shard(i)
	}
	return s.shards[i].GetTraced(key, tr)
}

// Contains reports whether key is present.
func (s *Sharded[K, V]) Contains(key K) bool {
	return s.shards[s.partOf(key)].Contains(key)
}

// Put stores val under key, returning true when the key was new. Only
// the owning shard's writer is serialized; readers everywhere continue
// on published versions.
func (s *Sharded[K, V]) Put(key K, val V) bool {
	return s.shards[s.partOf(key)].Put(key, val)
}

// Delete removes key, reporting whether it was present.
func (s *Sharded[K, V]) Delete(key K) bool {
	return s.shards[s.partOf(key)].Delete(key)
}

// Snapshot returns a pinned read view spanning every shard: each shard's
// currently published version pinned once, composed behind the same
// key-range routing the live index uses. The composite is per-shard
// consistent (shard versions are pinned one after another, not at one
// global instant). The caller must Release it.
func (s *Sharded[K, V]) Snapshot() *Snapshot[K, V] {
	snap := &Snapshot[K, V]{
		parts: newParts(make([]Index[K, V], len(s.shards)), true),
		seqs:  make([]uint64, len(s.shards)),
		slots: make([]*epochSlot, len(s.shards)),
	}
	for i, sh := range s.shards {
		v, sl := sh.pin(readerSlotHint())
		snap.trees[i] = v.tree
		snap.seqs[i] = v.seq.Load()
		snap.slots[i] = sl
	}
	return snap
}

// Versions reports each shard's currently published sequence number, in
// shard order.
func (s *Sharded[K, V]) Versions() []uint64 {
	out := make([]uint64, len(s.shards))
	for i, sh := range s.shards {
		out[i] = sh.Version()
	}
	return out
}

// MVCCInfo merges the per-shard snapshot-publication health: versions
// append in shard order, gauges and counters sum.
func (s *Sharded[K, V]) MVCCInfo() obs.MVCCSnapshot {
	var snap obs.MVCCSnapshot
	for i, sh := range s.shards {
		info := sh.MVCCInfo()
		if i == 0 {
			snap = info
			continue
		}
		snap.Merge(info)
	}
	return snap
}

// Compile-time check: Sharded satisfies the full Index interface and the
// snapshot-publication faces.
var (
	_ Index[uint32, int]       = (*Sharded[uint32, int])(nil)
	_ Snapshotter[uint32, int] = (*Sharded[uint32, int])(nil)
	_ MVCCReporter             = (*Sharded[uint32, int])(nil)
)
