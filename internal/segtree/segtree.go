// Package segtree implements the paper's Segment-Tree (§3): a B+-Tree
// whose inner-node search is k-ary search with (emulated) SIMD
// instructions instead of binary search.
//
// Each node's keys are stored as a linearized k-ary search tree (package
// kary) in breadth-first or depth-first order; child pointers and leaf
// values stay in plain linear order, because the k-ary search returns the
// same position a binary search on the sorted keys would (§3.1, "only the
// keys in the k-ary search tree must be linearized; pointers are left
// unchanged"). Updates therefore rewrite at most the keys of the
// nodes they touch — the paper's locality property.
package segtree

import (
	"fmt"

	"repro/internal/bitmask"
	"repro/internal/kary"
	"repro/internal/keys"
	"repro/internal/obs"
	"repro/internal/trace"
)

// Config parameterizes a Seg-Tree.
type Config struct {
	// LeafCap is the maximum number of data items per leaf node.
	LeafCap int
	// BranchCap is the maximum number of separator keys per branching
	// node.
	BranchCap int
	// Layout selects the per-node linearization (§3.2); the paper
	// measures both and finds depth-first fastest overall.
	Layout kary.Layout
	// Evaluator selects the bitmask evaluation algorithm (§2.1); the
	// paper settles on popcount (§5.2).
	Evaluator bitmask.Evaluator
}

// DefaultConfig sizes nodes with the paper's Table 3 key counts and uses
// the paper's preferred depth-first layout and popcount evaluation.
func DefaultConfig[K keys.Key]() Config {
	n := tableThreeLeafCap[K]()
	return Config{
		LeafCap:   n,
		BranchCap: n,
		Layout:    kary.DepthFirst,
		Evaluator: bitmask.Popcount,
	}
}

func tableThreeLeafCap[K keys.Key]() int {
	switch keys.Width[K]() {
	case 1:
		return 254
	case 2:
		return 404
	case 4:
		return 338
	default:
		return 242
	}
}

func (c Config) validate() error {
	if c.LeafCap < 2 || c.BranchCap < 2 {
		return fmt.Errorf("segtree: node capacities must be at least 2 (got leaf %d, branch %d)",
			c.LeafCap, c.BranchCap)
	}
	return nil
}

// Tree is a Seg-Tree mapping distinct keys of integer type K to values of
// type V. The zero value is not usable; construct with New or BulkLoad.
type Tree[K keys.Key, V any] struct {
	cfg   Config
	root  *node[K, V]
	first *node[K, V]
	size  int
}

// node is a branching node (children != nil) or a leaf. Keys live in a
// linearized k-ary search tree; children, values and the leaf chain are in
// linear order, indexed by the sorted position the k-ary search returns.
type node[K keys.Key, V any] struct {
	kt       kary.Tree[K]
	vals     []V
	children []*node[K, V]
	next     *node[K, V]
}

func (n *node[K, V]) leaf() bool { return n.children == nil }

// New returns an empty tree with the given configuration. It is the
// Must-style wrapper over NewChecked: it panics on an invalid
// configuration, for callers using fixed known-good configs. New code
// handling untrusted configuration should call NewChecked.
func New[K keys.Key, V any](cfg Config) *Tree[K, V] {
	t, err := NewChecked[K, V](cfg)
	if err != nil {
		panic(err.Error()) //simdtree:allowpanic Must-style wrapper; NewChecked is the error-returning form
	}
	return t
}

// NewChecked is New propagating an invalid configuration as an error
// instead of panicking.
func NewChecked[K keys.Key, V any](cfg Config) (*Tree[K, V], error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	leaf := &node[K, V]{kt: *kary.BuildUnchecked[K](nil, cfg.Layout)}
	return &Tree[K, V]{cfg: cfg, root: leaf, first: leaf}, nil
}

// NewDefault returns an empty tree with DefaultConfig.
func NewDefault[K keys.Key, V any]() *Tree[K, V] {
	return New[K, V](DefaultConfig[K]())
}

// Len reports the number of data items.
func (t *Tree[K, V]) Len() int { return t.size }

// Config returns the tree's configuration.
func (t *Tree[K, V]) Config() Config { return t.cfg }

// Height reports the number of levels (a lone leaf has height 1).
func (t *Tree[K, V]) Height() int {
	h := 1
	for n := t.root; !n.leaf(); n = n.children[0] {
		h++
	}
	return h
}

// The Get descent is a zero-allocation hot path; the directive keeps the
// //simdtree:hotpath annotations checked by cmd/simdvet.
//
//simdtree:kernels ^Tree\.GetTraced$

// Get returns the value stored under key, if present. Navigation uses the
// SIMD k-ary search in every node.
func (t *Tree[K, V]) Get(key K) (V, bool) {
	v, ok, _ := t.GetTraced(key, nil)
	return v, ok
}

// GetTraced is Get additionally returning the lookup's §4 cost — one node
// visit per B+-Tree level, and the k-ary levels, SIMD compares and mask
// evaluations of each node's search — and recording the descent into tr:
// one node step per level with the node's layout, the per-level SIMD
// compares of its k-ary search (loaded lanes, movemask, verdict) and the
// branch taken. A nil tr records nothing.
//
//simdtree:hotpath
func (t *Tree[K, V]) GetTraced(key K, tr *trace.Trace) (v V, ok bool, c obs.Cost) {
	if tr != nil {
		tr.SetStructure("segtree")
	}
	ev := t.cfg.Evaluator
	search := kary.Prepare(key)
	n := t.root
	depth := 0
	for !n.leaf() {
		if tr != nil {
			tr.Node(depth, n.kt.Len(), t.cfg.Layout.String(), "branch")
		}
		i := n.kt.SearchPT(key, search, ev, tr, &c)
		if tr != nil {
			tr.Branch(i)
		}
		n = n.children[i]
		depth++
	}
	if tr != nil {
		tr.Node(depth, n.kt.Len(), t.cfg.Layout.String(), "leaf")
	}
	i, found := n.kt.LookupPT(key, search, ev, tr, &c)
	if found {
		return n.vals[i-1], true, c
	}
	return v, false, c
}

// Contains reports whether key is present.
func (t *Tree[K, V]) Contains(key K) bool {
	_, ok := t.Get(key)
	return ok
}

// Min returns the smallest key and its value; ok is false when empty.
func (t *Tree[K, V]) Min() (k K, v V, ok bool) {
	n := t.first
	if n.kt.Len() == 0 {
		return k, v, false
	}
	return n.kt.At(0), n.vals[0], true
}

// Max returns the largest key and its value; ok is false when empty.
func (t *Tree[K, V]) Max() (k K, v V, ok bool) {
	n := t.root
	for !n.leaf() {
		n = n.children[len(n.children)-1]
	}
	if n.kt.Len() == 0 {
		return k, v, false
	}
	i := n.kt.Len() - 1
	return n.kt.At(i), n.vals[i], true
}

// Scan calls fn for every item with lo ≤ key ≤ hi in ascending key order,
// walking the linked leaves, until fn returns false.
func (t *Tree[K, V]) Scan(lo, hi K, fn func(K, V) bool) {
	if lo > hi {
		return
	}
	ev := t.cfg.Evaluator
	search := kary.Prepare(lo)
	n := t.root
	for !n.leaf() {
		n = n.children[n.kt.SearchP(lo, search, ev)]
	}
	// First index with key ≥ lo: the k-ary search yields the first index
	// with key > lo; step back once if lo itself is present.
	i, found := n.kt.LookupP(lo, search, ev)
	if found {
		i--
	}
	for n != nil {
		for ; i < n.kt.Len(); i++ {
			k := n.kt.At(i)
			if k > hi {
				return
			}
			if !fn(k, n.vals[i]) {
				return
			}
		}
		n = n.next
		i = 0
	}
}

// Ascend calls fn for every item in ascending key order until fn returns
// false.
func (t *Tree[K, V]) Ascend(fn func(K, V) bool) {
	for n := t.first; n != nil; n = n.next {
		for i, k := range n.kt.Keys() {
			if !fn(k, n.vals[i]) {
				return
			}
		}
	}
}
