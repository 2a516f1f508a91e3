package index

import (
	"fmt"

	"repro/internal/keys"
	"repro/internal/obs"
	"repro/internal/trace"
)

// Sharded key-range-partitions any Index across a fixed number of
// shards, each an independent Versioned copy-on-write publisher. Writes
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
	// Routing: the top (up to) 32 bits of OrderedBits, scaled by the
	// shard count. left/right pre-resolve the key-width-dependent shift.
	right uint
	left  uint
	// parts serves the multi-shard reads (Len, Min, Max, Ascend, Scan,
	// GetBatch, ContainsBatch, IndexStats, Shape) over the same shards,
	// routed by shardOf.
	parts[K, V]
}

// NewSharded partitions shardCount indexes built by newIndex. Each shard
// must start empty; the caller must not use the built indexes directly.
// It panics when shardCount < 1.
func NewSharded[K keys.Key, V any](shardCount int, newIndex func() Index[K, V]) *Sharded[K, V] {
	if shardCount < 1 {
		panic(fmt.Sprintf("index: shard count %d < 1", shardCount)) //simdtree:allowpanic configuration contract, documented above
	}
	s := &Sharded[K, V]{shards: make([]*Versioned[K, V], shardCount)}
	bits := uint(8 * keys.Width[K]())
	if bits >= 32 {
		s.right = bits - 32
	} else {
		s.left = 32 - bits
	}
	s.trees = make([]Index[K, V], shardCount)
	for i := range s.shards {
		s.shards[i] = NewVersioned(newIndex)
		s.trees[i] = s.shards[i]
	}
	s.route = s.shardOf
	return s
}

// Shards reports the shard count.
func (s *Sharded[K, V]) Shards() int { return len(s.shards) }

// The untraced sharded Get is a zero-allocation hot path; the directive keeps the
// //simdtree:hotpath annotations checked by cmd/simdvet.
//
//simdtree:kernels ^Sharded\.(Get|shardOf)$

// shardOf routes a key to its shard: the top 32 bits of the
// order-preserving key pattern scaled into [0, len(shards)). Monotone in
// key order, so shard ranges partition the key space into ordered slabs.
//
//simdtree:hotpath
func (s *Sharded[K, V]) shardOf(key K) int {
	t := keys.OrderedBits(key) >> s.right << s.left
	return int(t * uint64(len(s.shards)) >> 32)
}

// Get returns the value stored under key, if present — lock-free against
// the owning shard's published version.
//
//simdtree:hotpath
func (s *Sharded[K, V]) Get(key K) (V, bool) {
	return s.shards[s.shardOf(key)].Get(key)
}

// GetTraced is Get additionally returning the owning shard's lookup cost
// and recording the shard routed to and its descent into tr.
func (s *Sharded[K, V]) GetTraced(key K, tr *trace.Trace) (V, bool, obs.Cost) {
	i := s.shardOf(key)
	if tr != nil {
		tr.Shard(i)
	}
	return s.shards[i].GetTraced(key, tr)
}

// Contains reports whether key is present.
func (s *Sharded[K, V]) Contains(key K) bool {
	return s.shards[s.shardOf(key)].Contains(key)
}

// Put stores val under key, returning true when the key was new. Only
// the owning shard's writer is serialized; readers everywhere continue
// on published versions.
func (s *Sharded[K, V]) Put(key K, val V) bool {
	return s.shards[s.shardOf(key)].Put(key, val)
}

// Delete removes key, reporting whether it was present.
func (s *Sharded[K, V]) Delete(key K) bool {
	return s.shards[s.shardOf(key)].Delete(key)
}

// Snapshot returns a pinned read view spanning every shard: each shard's
// currently published version pinned once, composed behind the same
// key-range routing the live index uses. The composite is per-shard
// consistent (shard versions are pinned one after another, not at one
// global instant). The caller must Release it.
func (s *Sharded[K, V]) Snapshot() *Snapshot[K, V] {
	snap := &Snapshot[K, V]{
		parts: parts[K, V]{trees: make([]Index[K, V], len(s.shards)), route: s.route},
		seqs:  make([]uint64, len(s.shards)),
		slots: make([]*epochSlot, len(s.shards)),
	}
	for i, sh := range s.shards {
		v, sl := sh.pin()
		snap.trees[i] = v.tree
		snap.seqs[i] = v.seq
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
