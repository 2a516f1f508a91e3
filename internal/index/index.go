// Package index is the shared core of every tree structure in this
// module. Before it existed, the Seg-Tree (§3), Seg-Trie (§4), optimized
// Seg-Trie and the baseline B+-Tree each hand-rolled the same lookup,
// batch, iteration and statistics surface; this package is the single
// home for
//
//   - the common Index interface every structure satisfies (and the
//     conformance suite that pins its semantics, see conformance_test.go),
//   - the batched-lookup core (batch.go): the allocation-free
//     GetBatchInto contract, one serial loop, and the interleaved batch
//     descent that overlaps the node loads of independent probes,
//   - the key-range sharded concurrent index (sharded.go), the scalable
//     write path the single-lock concurrent.Locked cannot provide, over
//     the MVCC snapshot publisher (versioned.go) and the path-copying
//     write interface it publishes through (fork.go).
//
// The package sits below the structure packages: it imports only
// internal/keys, and segtree/segtrie/btree import it for the engine.
package index

import (
	"repro/internal/keys"
	"repro/internal/obs"
	"repro/internal/shape"
	"repro/internal/trace"
)

// Basic is the minimal mutable map surface shared by every structure —
// the subset concurrent wrappers need. concurrent.Map is this interface.
type Basic[K keys.Key, V any] interface {
	// Get returns the value stored under key, if present.
	Get(K) (V, bool)
	// Put stores a value under key, returning true when the key was new.
	Put(K, V) bool
	// Delete removes key, reporting whether it was present.
	Delete(K) bool
	// Len reports the number of stored items.
	Len() int
}

// Batcher is the batched-lookup face of an index. Every implementation
// answers GetBatchInto through the shared core in batch.go: the
// interleaved descent where the structure has one, serial Gets
// otherwise.
type Batcher[K keys.Key, V any] interface {
	// GetBatchInto looks up ks[i] into vals[i] and found[i] for the first
	// len(ks) entries — the zero value and false for a miss — so a caller
	// can reuse the same buffers. vals and found must hold at least
	// len(ks) entries. It allocates nothing.
	GetBatchInto(ks []K, vals []V, found []bool)
	// GetBatch looks up many keys at once and returns values and a
	// parallel found mask, both in input order: GetBatchInto into two
	// fresh slices.
	GetBatch([]K) ([]V, []bool)
	// ContainsBatch reports presence for many keys at once, in input
	// order.
	ContainsBatch([]K) []bool
}

// Index is the full common interface of the module's index structures:
// Seg-Tree, Seg-Trie, optimized Seg-Trie, baseline B+-Tree, and the
// Sharded wrapper over any of them.
type Index[K keys.Key, V any] interface {
	Basic[K, V]
	Batcher[K, V]

	// Contains reports whether key is present.
	Contains(K) bool
	// Min returns the smallest key and its value; ok is false when empty.
	Min() (K, V, bool)
	// Max returns the largest key and its value; ok is false when empty.
	Max() (K, V, bool)
	// Scan calls fn for every item with lo ≤ key ≤ hi in ascending key
	// order until fn returns false.
	Scan(lo, hi K, fn func(K, V) bool)
	// Ascend calls fn for every item in ascending key order until fn
	// returns false.
	Ascend(fn func(K, V) bool)
	// GetTraced is Get additionally returning the lookup's §4 cost —
	// node visits, k-ary levels, SIMD compares, mask evaluations, scalar
	// compares — and recording the per-level descent (node identity,
	// SIMD compares, mask verdicts, branch taken) into tr. A nil tr
	// records nothing. Each structure has this one descent and its Get
	// drops the cost, so neither the cost nor the trace can drift from
	// the real search.
	GetTraced(key K, tr *trace.Trace) (V, bool, obs.Cost)
	// IndexStats summarizes shape and memory in structure-independent
	// terms: StatsOf(Shape()).
	IndexStats() Stats
	// Shape walks the structure and returns the full structural-health
	// report: per-level fill, register utilization, memory split. It is
	// the one structural walk each structure implements — for snapshots
	// and debug endpoints, not hot paths.
	Shape() shape.Report
}

// Stats is the structure-independent summary every Index reports. The
// memory accounting follows the paper (§5.1): key slots cost the key
// width (one byte for trie partial keys), pointers eight bytes.
type Stats struct {
	// Keys is the number of stored items.
	Keys int
	// Height is the maximum number of node searches a lookup performs
	// (B+-Tree height, or trie levels actually traversed).
	Height int
	// Nodes is the total node count.
	Nodes int
	// MemoryBytes is the total footprint: keys plus pointers.
	MemoryBytes int64
	// KeyMemoryBytes counts key storage only — the basis of the paper's
	// 8× memory-reduction claim for the Seg-Trie.
	KeyMemoryBytes int64
}

// StatsOf projects a shape report onto the summary: Height is the
// report's Levels, and key memory counts real keys and §3.3
// replenishment pads (PointerBytes is the rest of TotalBytes). A merged
// Sharded report projects to the per-shard sums with the deepest height.
func StatsOf(r shape.Report) Stats {
	return Stats{
		Keys:           r.Keys,
		Height:         r.Levels,
		Nodes:          r.Nodes,
		MemoryBytes:    r.TotalBytes,
		KeyMemoryBytes: r.KeyBytes + r.PaddingBytes,
	}
}
