package index

import (
	"fmt"
	"sync/atomic"

	"repro/internal/invariants"
	"repro/internal/keys"
	"repro/internal/obs"
	"repro/internal/trace"
)

// Sharded key-range-partitions a path-copying index (Forker) across a
// fixed number of shards, each an independent Versioned publisher with
// its own writer and sequence space. Writes to different key ranges
// proceed in parallel — what the single global lock of concurrent.Locked
// cannot do — and reads never take a lock at all: each read pins its
// shard's currently published version through the MVCC epoch protocol
// (see Versioned), so a heavy write stream on one shard never stalls
// readers anywhere, including on that shard.
//
// The shards share one reader-slot array and one claimed word, sized as
// a standalone Versioned's: a reader announces its shard's tag with the
// sequence it pins, so each shard's writer waits only on its own
// readers. A whole-index Snapshot claims one slot for all shards. The
// slot count bounds the pins in flight across the whole index: held
// Snapshots and every read that is still running, a streaming Scan or
// Ascend until its callback returns included, draw on one pool of
// max(8×GOMAXPROCS, 64) slots, and once all are taken every reader of
// every shard probes, yielding, until one is released.
//
// The partition is by key range, not by hash: shard boundaries follow the
// order-preserving bit pattern of the key (keys.OrderedBits), so shard 0
// holds the smallest keys and shard N−1 the largest. Ordered operations
// (Min, Max, Ascend, Scan) therefore visit shards in key order and stay
// ordered overall. Sharded itself satisfies Index.
type Sharded[K keys.Key, V any] struct {
	shards  []*Versioned[K, V]
	readers readerSlots
	// parts routes keys to shards (partOf) and serves the multi-shard
	// reads (Len, Min, Max, Ascend, Scan, GetBatchInto, GetBatch,
	// ContainsBatch, IndexStats, Shape) over the same shards.
	parts[K, V]
}

// NewSharded partitions shardCount indexes built by newIndex. Each shard
// must start empty and implement Forker (see NewVersioned); the caller
// must not use the built indexes directly. It panics when shardCount < 1
// or above 4,095 (the announcement tag's range).
func NewSharded[K keys.Key, V any](shardCount int, newIndex func() Index[K, V]) *Sharded[K, V] {
	if shardCount < 1 || shardCount > maxShards {
		panic(fmt.Sprintf("index: shard count %d outside [1, %d]", shardCount, maxShards)) //simdtree:allowpanic configuration contract, documented above
	}
	s := &Sharded[K, V]{
		shards:  make([]*Versioned[K, V], shardCount),
		readers: newReaderSlots(defaultReaderSlots(), shardCount),
		parts:   newParts(make([]Index[K, V], shardCount), true),
	}
	for i := range s.shards {
		s.shards[i] = newShard(newIndex, s.readers, i)
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
//
// The snapshot claims one slot, whatever the shard count: it announces
// wildcard there, points the slot at its per-shard sequences, and then
// announces and validates each shard's sequence in turn (see
// Versioned.hold). A writer that reads the wildcard before the pointer
// is set, or before its shard's entry is, skips it: the snapshot will
// validate that shard against a version no older than the one the
// writer published.
func (s *Sharded[K, V]) Snapshot() *Snapshot[K, V] {
	snap := &Snapshot[K, V]{
		parts: newParts(make([]Index[K, V], len(s.shards)), true),
		seqs:  make([]atomic.Uint64, len(s.shards)),
	}
	snap.slot = s.readers.claim(readerSlotHint(), wildcard)
	snap.slot.seqs.Store(&snap.seqs)
	for i, sh := range s.shards {
		if invariants.Enabled {
			invariants.Assert(snap.slot.epoch.Load() == wildcard && snap.slot.seqs.Load() == &snap.seqs,
				"wildcard slot announces a shard before pointing at its sequences")
		}
		v := sh.current.Load()
		seq := v.seq.Load()
		snap.seqs[i].Store(seq)
		v = sh.hold(&snap.seqs[i], 0, v, seq)
		snap.trees[i] = v.tree
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
// append in shard order, the writers' gauges and counters sum, and the
// reader-slot gauges (active snapshots, claimed and total slots) are
// read once from the shared array.
func (s *Sharded[K, V]) MVCCInfo() obs.MVCCSnapshot {
	var snap obs.MVCCSnapshot
	for i, sh := range s.shards {
		info := sh.writerInfo()
		if i == 0 {
			snap = info
			continue
		}
		snap.Merge(info)
	}
	s.readers.report(&snap)
	return snap
}

// Compile-time check: Sharded satisfies the full Index interface and the
// snapshot-publication faces.
var (
	_ Index[uint32, int]       = (*Sharded[uint32, int])(nil)
	_ Snapshotter[uint32, int] = (*Sharded[uint32, int])(nil)
	_ MVCCReporter             = (*Sharded[uint32, int])(nil)
)
