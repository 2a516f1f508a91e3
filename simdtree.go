// Package simdtree is a from-scratch Go reproduction of
//
//	Zeuch, Huber, Freytag: "Adapting Tree Structures for Processing with
//	SIMD Instructions", EDBT 2014.
//
// It provides the paper's two adapted index structures and their baseline:
//
//   - SegTree — a B+-Tree whose inner-node search is k-ary search on
//     linearized key arrays, executed with an emulated 128-bit SIMD unit
//     (§3 of the paper).
//   - SegTrie — a prefix B-Tree over 8-bit key segments whose nodes are
//     17-ary searched (§4), with or without the optimized trie's level
//     omission (NewOptimizedSegTrie).
//   - BPlusTree — the classic B+-Tree with binary inner-node search, the
//     paper's baseline.
//
// Go has no SIMD intrinsics, so the SSE2 instruction subset the paper uses
// is emulated with SWAR (SIMD-within-a-register) arithmetic on 64-bit
// words; see DESIGN.md for why this substitution preserves the paper's
// performance shape. All building blocks are exported through this facade:
// the k-ary search trees themselves (KaryTree), the two linearizations,
// the three bitmask-evaluation algorithms, and the workload generators
// used by the benchmark harness (cmd/segbench).
//
// Quick start:
//
//	t := simdtree.NewSegTree[uint32, string]()
//	t.Put(42, "answer")
//	v, ok := t.Get(42)
//
// See the examples directory for runnable end-to-end scenarios.
package simdtree

import (
	"io"

	"repro/internal/bitmask"
	"repro/internal/btree"
	"repro/internal/kary"
	"repro/internal/keys"
	"repro/internal/segtree"
	"repro/internal/segtrie"
)

// Key is the set of integer key types supported by every structure in this
// module: 8-, 16-, 32- and 64-bit signed and unsigned integers. The key
// width determines the SIMD lane width and therefore the k of the k-ary
// search (paper Table 2).
type Key = keys.Key

// Layout selects how a node's keys are linearized (paper §3.2).
type Layout = kary.Layout

// Linearization layouts.
const (
	// BreadthFirst stores the k-ary search tree level by level (paper
	// Formula 1, searched with Algorithm 5).
	BreadthFirst = kary.BreadthFirst
	// DepthFirst stores every node before its subtrees (paper Formula 2,
	// searched with Algorithm 4).
	DepthFirst = kary.DepthFirst
)

// Evaluator selects the bitmask-evaluation algorithm (paper §2.1,
// Algorithms 1–3).
type Evaluator = bitmask.Evaluator

// Bitmask evaluation algorithms.
const (
	// BitShift is Algorithm 1 (bit shifting).
	BitShift = bitmask.BitShift
	// SwitchCase is Algorithm 2 (switch case).
	SwitchCase = bitmask.SwitchCase
	// Popcount is Algorithm 3 (popcnt) — the paper's and this module's
	// default.
	Popcount = bitmask.Popcount
)

// SegTree is the paper's Segment-Tree (§3): a B+-Tree with SIMD k-ary
// inner-node search.
type SegTree[K Key, V any] = segtree.Tree[K, V]

// SegTreeConfig parameterizes a SegTree.
type SegTreeConfig = segtree.Config

// NewSegTree returns an empty Seg-Tree. Without options it uses the
// paper's Table 3 node sizing, depth-first layout and popcount
// evaluation, with narrow-lane nodes; WithLayout, WithEvaluator,
// WithLeafCap and WithBranchCap override individual parameters:
//
//	t := simdtree.NewSegTree[uint64, string](
//		simdtree.WithLayout(simdtree.BreadthFirst),
//		simdtree.WithEvaluator(simdtree.SwitchCase),
//	)
func NewSegTree[K Key, V any](opts ...Option) *SegTree[K, V] {
	o := buildOptions(opts)
	o.reject("NewSegTree")
	return segtree.New[K, V](o.segTreeConfig(segtree.DefaultConfig[K]()))
}

// BulkLoadSegTree builds a Seg-Tree from strictly ascending keys with
// completely filled nodes — the paper's initial-filling fast path. The
// zero-option call uses the paper's default configuration; WithLayout,
// WithEvaluator, WithLeafCap and WithBranchCap override individual
// parameters, exactly as in NewSegTree.
func BulkLoadSegTree[K Key, V any](ks []K, vs []V, opts ...Option) *SegTree[K, V] {
	o := buildOptions(opts)
	o.reject("BulkLoadSegTree")
	return segtree.BulkLoad[K, V](o.segTreeConfig(segtree.DefaultConfig[K]()), ks, vs)
}

// SegTrie is the paper's Segment-Trie (§4): a prefix B-Tree over 8-bit key
// segments with 17-ary SIMD node search.
type SegTrie[K Key, V any] = segtrie.Trie[K, V]

// OptimizedSegTrie is SegTrie built by NewOptimizedSegTrie: single-key
// levels are omitted and stored as in-node prefixes (lazy expansion, §4),
// giving the paper's constant speedup on dense key ranges.
type OptimizedSegTrie[K Key, V any] = segtrie.Trie[K, V]

// SegTrieConfig parameterizes both tries.
type SegTrieConfig = segtrie.Config

// NewSegTrie returns an empty Seg-Trie; WithLayout and WithEvaluator
// override the per-node 17-ary search parameters.
func NewSegTrie[K Key, V any](opts ...Option) *SegTrie[K, V] {
	o := buildOptions(opts)
	o.reject("NewSegTrie")
	return segtrie.New[K, V](o.segTrieConfig("NewSegTrie"))
}

// NewOptimizedSegTrie returns an empty optimized Seg-Trie; WithLayout and
// WithEvaluator override the per-node 17-ary search parameters.
func NewOptimizedSegTrie[K Key, V any](opts ...Option) *OptimizedSegTrie[K, V] {
	o := buildOptions(opts)
	o.reject("NewOptimizedSegTrie")
	return segtrie.NewOptimized[K, V](o.segTrieConfig("NewOptimizedSegTrie"))
}

// BPlusTree is the paper's baseline: a B+-Tree with binary inner-node
// search.
type BPlusTree[K Key, V any] = btree.Tree[K, V]

// BPlusTreeConfig parameterizes a BPlusTree.
type BPlusTreeConfig = btree.Config

// NewBPlusTree returns an empty baseline B+-Tree with Table 3 node
// sizing; WithLeafCap and WithBranchCap override the node capacities.
func NewBPlusTree[K Key, V any](opts ...Option) *BPlusTree[K, V] {
	o := buildOptions(opts)
	o.reject("NewBPlusTree")
	return btree.New[K, V](o.bPlusTreeConfig(btree.DefaultConfig[K](), "NewBPlusTree"))
}

// BulkLoadBPlusTree builds a baseline B+-Tree from strictly ascending
// keys with completely filled nodes. The zero-option call uses Table 3
// node sizing; WithLeafCap and WithBranchCap override the capacities,
// exactly as in NewBPlusTree.
func BulkLoadBPlusTree[K Key, V any](ks []K, vs []V, opts ...Option) *BPlusTree[K, V] {
	o := buildOptions(opts)
	o.reject("BulkLoadBPlusTree")
	return btree.BulkLoad[K, V](o.bPlusTreeConfig(btree.DefaultConfig[K](), "BulkLoadBPlusTree"), ks, vs)
}

// KaryTree is one linearized k-ary search tree over a sorted key list —
// the building block of the Seg-Tree and Seg-Trie, usable directly as a
// static SIMD-searchable sorted set (paper §2.2).
type KaryTree[K Key] = kary.Tree[K]

// BuildKaryTree linearizes a strictly ascending key list; it panics on
// unsorted input. BuildKaryTreeChecked is the error-returning form.
func BuildKaryTree[K Key](sorted []K, layout Layout) *KaryTree[K] {
	return kary.Build(sorted, layout)
}

// BuildKaryTreeChecked linearizes a strictly ascending key list,
// returning an error wrapping ErrUnsorted instead of panicking on
// unsorted input.
func BuildKaryTreeChecked[K Key](sorted []K, layout Layout) (*KaryTree[K], error) {
	return kary.BuildChecked(sorted, layout)
}

// UpperBound is the scalar baseline: binary search for the first element
// strictly greater than v.
func UpperBound[K Key](sorted []K, v K) int {
	return kary.UpperBound(sorted, v)
}

// KValue reports the k of the k-ary search for key type K on the emulated
// 128-bit SIMD unit (paper Table 2: 17, 9, 5, 3 for 8-, 16-, 32-, 64-bit
// keys).
func KValue[K Key]() int { return keys.K[K]() }

// ParallelComparisons reports how many keys of type K one SIMD comparison
// processes (paper Table 2).
func ParallelComparisons[K Key]() int { return keys.Lanes[K]() }

// DeserializeSegTree restores a Seg-Tree snapshot written by
// SegTree.Serialize. decodeValue must read back what the serializing
// codec wrote.
func DeserializeSegTree[K Key, V any](r io.Reader, decodeValue func(io.Reader) (V, error)) (*SegTree[K, V], error) {
	return segtree.Deserialize[K, V](r, decodeValue)
}
