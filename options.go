package simdtree

import (
	"fmt"

	"repro/internal/btree"
	"repro/internal/index"
	"repro/internal/segtree"
	"repro/internal/segtrie"
)

// This file is the functional-options construction surface of the facade.
// Every structure constructor accepts the same Option type; options that
// do not apply to a given constructor panic with a pointer to the right
// one, so misconfiguration fails loudly at construction, not silently at
// search time.
//
//	t := simdtree.NewSegTree[uint64, string](
//		simdtree.WithLayout(simdtree.DepthFirst),
//		simdtree.WithEvaluator(simdtree.Popcount),
//	)
//	ix := simdtree.NewIndex[uint64, string](
//		simdtree.WithStructure(simdtree.StructureOptimizedSegTrie),
//		simdtree.WithShards(16),
//	)

// Structure selects which index structure NewIndex builds.
type Structure int

const (
	// StructureSegTree is the paper's Segment-Tree (§3) — the default.
	StructureSegTree Structure = iota
	// StructureSegTrie is the Segment-Trie (§4).
	StructureSegTrie
	// StructureOptimizedSegTrie is the optimized Segment-Trie (§4, lazy
	// expansion).
	StructureOptimizedSegTrie
	// StructureBPlusTree is the baseline B+-Tree with binary search.
	StructureBPlusTree
)

// String names the structure as the benchmarks do.
func (s Structure) String() string {
	switch s {
	case StructureSegTree:
		return "segtree"
	case StructureSegTrie:
		return "segtrie"
	case StructureOptimizedSegTrie:
		return "opt-segtrie"
	case StructureBPlusTree:
		return "btree"
	default:
		return "unknown"
	}
}

// options accumulates what the With* functions set. Set-flags distinguish
// "not configured" from zero values, so defaults stay per-structure.
type options struct {
	structure    Structure
	structureSet bool
	layout       Layout
	layoutSet    bool
	evaluator    Evaluator
	evaluatorSet bool
	leafCap      int
	branchCap    int
	shards       int
	snapshots    bool
}

// Option configures a constructor. The same Option type is accepted by
// every constructor of the facade; see the individual With* functions for
// which constructors understand them.
type Option func(*options)

func buildOptions(opts []Option) options {
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

// reject panics when o carries a setting the named constructor cannot
// honour, naming the constructor that can.
func (o *options) reject(constructor string) {
	fail := func(opt, hint string) {
		panic(fmt.Sprintf("simdtree: %s does not apply to %s; %s", opt, constructor, hint)) //simdtree:allowpanic misuse of the options API is a programming error, caught at construction
	}
	useNewIndex := "use NewIndex instead"
	if o.structureSet {
		fail("WithStructure", useNewIndex)
	}
	if o.shards > 0 {
		fail("WithShards", useNewIndex+" or wrap with NewShardedIndex")
	}
	if o.snapshots {
		fail("WithSnapshots", useNewIndex+" or wrap with NewVersionedIndex")
	}
}

// WithLayout selects the k-ary linearization (BreadthFirst or DepthFirst)
// of SegTree, SegTrie, OptimizedSegTrie and NewIndex nodes.
func WithLayout(l Layout) Option {
	return func(o *options) { o.layout = l; o.layoutSet = true }
}

// WithEvaluator selects the bitmask-evaluation algorithm of SegTree,
// SegTrie, OptimizedSegTrie and NewIndex nodes.
func WithEvaluator(e Evaluator) Option {
	return func(o *options) { o.evaluator = e; o.evaluatorSet = true }
}

// WithLeafCap overrides the per-leaf key capacity of SegTree, BPlusTree
// and tree-structured NewIndex instances (default: the paper's Table 3
// sizing). The tries have fixed 256-way nodes and reject this option.
func WithLeafCap(n int) Option {
	return func(o *options) { o.leafCap = n }
}

// WithBranchCap overrides the per-branch key capacity of SegTree,
// BPlusTree and tree-structured NewIndex instances.
func WithBranchCap(n int) Option {
	return func(o *options) { o.branchCap = n }
}

// WithStructure selects the structure NewIndex builds (default
// StructureSegTree). Only NewIndex understands it; the concrete
// constructors already name their structure.
func WithStructure(s Structure) Option {
	return func(o *options) { o.structure = s; o.structureSet = true }
}

// WithShards makes NewIndex wrap the structure in a ShardedIndex with n
// key-range shards (each an MVCC snapshot publisher: lock-free reads,
// per-shard serialized writers; safe for concurrent use). n < 2 means
// unsharded.
func WithShards(n int) Option {
	return func(o *options) { o.shards = n }
}

// WithSnapshots makes NewIndex wrap the structure in a VersionedIndex:
// MVCC copy-on-write snapshot publication, under which every read runs
// lock-free against an immutable published version and the index is safe
// for concurrent use. WithShards(n ≥ 2) implies it — each shard is a
// versioned publisher already — so the option matters for the unsharded
// case.
func WithSnapshots() Option {
	return func(o *options) { o.snapshots = true }
}

// segTreeConfig resolves options against the Seg-Tree defaults.
func (o *options) segTreeConfig(forKey SegTreeConfig) SegTreeConfig {
	cfg := forKey
	if o.layoutSet {
		cfg.Layout = o.layout
	}
	if o.evaluatorSet {
		cfg.Evaluator = o.evaluator
	}
	if o.leafCap > 0 {
		cfg.LeafCap = o.leafCap
	}
	if o.branchCap > 0 {
		cfg.BranchCap = o.branchCap
	}
	return cfg
}

// segTrieConfig resolves options against the Seg-Trie defaults.
func (o *options) segTrieConfig(constructor string) SegTrieConfig {
	if o.leafCap > 0 || o.branchCap > 0 {
		panic(fmt.Sprintf("simdtree: WithLeafCap/WithBranchCap do not apply to %s: trie nodes are fixed 256-way", constructor)) //simdtree:allowpanic misuse of the options API is a programming error, caught at construction
	}
	cfg := segtrie.DefaultConfig()
	if o.layoutSet {
		cfg.Layout = o.layout
	}
	if o.evaluatorSet {
		cfg.Evaluator = o.evaluator
	}
	return cfg
}

// bPlusTreeConfig resolves options against the B+-Tree defaults.
func (o *options) bPlusTreeConfig(forKey BPlusTreeConfig, constructor string) BPlusTreeConfig {
	if o.layoutSet || o.evaluatorSet {
		panic(fmt.Sprintf("simdtree: WithLayout/WithEvaluator do not apply to %s: the baseline searches nodes with scalar binary search", constructor)) //simdtree:allowpanic misuse of the options API is a programming error, caught at construction
	}
	cfg := forKey
	if o.leafCap > 0 {
		cfg.LeafCap = o.leafCap
	}
	if o.branchCap > 0 {
		cfg.BranchCap = o.branchCap
	}
	return cfg
}

// NewIndex builds any structure of the module behind the common Index
// interface: the structure kind, node parameters and sharding are all
// selected with options. The zero-option call returns a default
// Seg-Tree. With WithShards(n ≥ 2) the result is safe for concurrent
// use.
func NewIndex[K Key, V any](opts ...Option) Index[K, V] {
	o := buildOptions(opts)
	newOne := func() Index[K, V] {
		switch o.structure {
		case StructureSegTrie:
			return segtrie.New[K, V](o.segTrieConfig("NewIndex(StructureSegTrie)"))
		case StructureOptimizedSegTrie:
			return segtrie.NewOptimized[K, V](o.segTrieConfig("NewIndex(StructureOptimizedSegTrie)"))
		case StructureBPlusTree:
			return btree.New[K, V](o.bPlusTreeConfig(btree.DefaultConfig[K](), "NewIndex(StructureBPlusTree)"))
		default:
			return segtree.New[K, V](o.segTreeConfig(segtree.DefaultConfig[K]()))
		}
	}
	switch {
	case o.shards >= 2:
		// Sharded shards are each a versioned snapshot publisher, so
		// WithSnapshots is already implied.
		return index.NewSharded[K, V](o.shards, newOne)
	case o.snapshots:
		return index.NewVersioned[K, V](newOne)
	default:
		return newOne()
	}
}

// NewInstrumentedIndex is NewIndex wrapped in an InstrumentedIndex,
// returned as the concrete type so callers reach Snapshot (whose
// Metrics rows WriteProm renders) without assertions. The wrapper sits outside any
// sharding, so its histograms and point-lookup counters cover whole
// sharded operations.
func NewInstrumentedIndex[K Key, V any](opts ...Option) *InstrumentedIndex[K, V] {
	return index.NewInstrumented(NewIndex[K, V](opts...))
}
