package simdtree

import (
	"repro/internal/concurrent"
	"repro/internal/index"
	"repro/internal/keys"
	"repro/internal/obs"
	"repro/internal/zhouross"
)

// Extensions beyond the paper's core contribution: the Zhou-Ross SIMD
// search strategies it discusses as related work (§6), and thread-safe
// access, the first of its future-work directions (§7).

// Index is the common interface of every index structure in this module —
// SegTree, SegTrie, OptimizedSegTrie, BPlusTree and ShardedIndex all
// satisfy it: point and batched lookups, mutation, ordered iteration and
// a structure-independent statistics summary.
type Index[K Key, V any] = index.Index[K, V]

// IndexStats is the structure-independent shape/memory summary every
// Index reports through IndexStats().
type IndexStats = index.Stats

// ShardedIndex key-range-partitions a tree structure of the module
// across N shards, each an independent MVCC snapshot publisher — the
// scalable concurrent path: writes to different key ranges proceed in
// parallel, and reads are lock-free everywhere (each read pins its
// shard's published version). Ordered operations stay ordered because
// the partition follows key order.
type ShardedIndex[K Key, V any] = index.Sharded[K, V]

// NewShardedIndex builds a sharded index over shardCount instances
// produced by newIndex (one per shard, each must start empty). Each must
// implement the path-copying write interface index.Forker, as the
// SegTree, SegTrie, OptimizedSegTrie and BPlusTree do; it panics on one
// that does not:
//
//	s := simdtree.NewShardedIndex[uint64, string](16, func() simdtree.Index[uint64, string] {
//		return simdtree.NewSegTree[uint64, string]()
//	})
func NewShardedIndex[K Key, V any](shardCount int, newIndex func() Index[K, V]) *ShardedIndex[K, V] {
	return index.NewSharded[K, V](shardCount, newIndex)
}

// VersionedIndex wraps one tree structure in MVCC snapshot publication:
// Get/GetBatch and every other read run lock-free against an immutable
// published version while one writer at a time builds and atomically
// publishes the next. A write forks the published tree in O(1) and
// copies only the nodes on its path (path copying), reusing the storage
// of nodes no reader can reach any more. It is the unsharded concurrent
// index; combine with sharding via NewIndex(WithShards(n)), whose shards
// are each a VersionedIndex already.
type VersionedIndex[K Key, V any] = index.Versioned[K, V]

// NewVersionedIndex wraps an index built by newIndex in MVCC snapshot
// publication:
//
//	ix := simdtree.NewVersionedIndex[uint64, string](func() simdtree.Index[uint64, string] {
//		return simdtree.NewSegTree[uint64, string]()
//	})
//
// newIndex is called once; the tree it returns must start empty and
// implement index.Forker (NewVersionedIndex panics otherwise).
func NewVersionedIndex[K Key, V any](newIndex func() Index[K, V]) *VersionedIndex[K, V] {
	return index.NewVersioned[K, V](newIndex)
}

// IndexSnapshotView is a pinned, immutable read view of a versioned or
// sharded index: every read observes exactly the version(s) pinned at
// acquisition, lock-free, no matter how far concurrent writers advance
// the live index. Release it when done.
type IndexSnapshotView[K Key, V any] = index.Snapshot[K, V]

// Snapshotter is satisfied by every index that can hand out pinned
// copy-on-write read views: VersionedIndex and ShardedIndex directly,
// and InstrumentedIndex via its ReadSnapshot method.
type Snapshotter[K Key, V any] = index.Snapshotter[K, V]

// MVCCStats is the point-in-time health of an index's snapshot
// publication: current versions, pinned readers, the versions whose
// retired nodes a pinned reader still holds back, and the publish,
// reclaim and node-copy counters with publish latency (the clone
// counter of the earlier two-tree writer always reads 0).
type MVCCStats = obs.MVCCSnapshot

// TakeSnapshot returns a pinned read view of ix when it publishes
// versions (VersionedIndex, ShardedIndex, or an InstrumentedIndex over
// either); ok is false otherwise. The caller must Release the view.
func TakeSnapshot[K Key, V any](ix Index[K, V]) (*IndexSnapshotView[K, V], bool) {
	switch t := ix.(type) {
	case Snapshotter[K, V]:
		return t.Snapshot(), true
	case *InstrumentedIndex[K, V]:
		return t.ReadSnapshot()
	}
	return nil, false
}

// ZhouRossList is a sorted list searchable with the three SIMD strategies
// of Zhou and Ross (SIGMOD 2002): full-bandwidth sequential scan, improved
// binary search, and their hybrid. Unlike the k-ary search tree it keeps
// keys in plain sorted order.
type ZhouRossList[K Key] = zhouross.List[K]

// NewZhouRossList builds a Zhou-Ross searchable list from strictly
// ascending keys; it panics on unsorted input. NewZhouRossListChecked is
// the error-returning form.
func NewZhouRossList[K Key](sorted []K) *ZhouRossList[K] {
	return zhouross.New(sorted)
}

// NewZhouRossListChecked builds a Zhou-Ross searchable list, returning an
// error wrapping ErrUnsorted instead of panicking on unsorted input.
func NewZhouRossListChecked[K Key](sorted []K) (*ZhouRossList[K], error) {
	return zhouross.NewChecked(sorted)
}

// ErrUnsorted reports construction input whose keys are not strictly
// ascending. The Checked constructors wrap it with position context;
// match with errors.Is.
var ErrUnsorted = keys.ErrUnsorted

// Map is the common mutable interface of every index in this module.
type Map[K Key, V any] = concurrent.Map[K, V]

// LockedMap wraps any Map with a readers-writer lock: lookups run
// concurrently, mutations exclusively.
type LockedMap[K Key, V any] = concurrent.Locked[K, V]

// NewLockedMap wraps m for concurrent use. The caller must not use m
// directly afterwards.
func NewLockedMap[K Key, V any](m Map[K, V]) *LockedMap[K, V] {
	return concurrent.NewLocked(m)
}

// ParallelSearch probes a read-only index from several goroutines and
// returns the number of hits. Searches are side-effect free, so a
// read-only index needs no locking.
func ParallelSearch[K keys.Key, V any](idx interface{ Get(K) (V, bool) }, probes []K, workers int) int {
	return concurrent.ParallelSearch[K, V](idx, probes, workers)
}
