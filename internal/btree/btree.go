// Package btree is the paper's baseline: an in-memory B+-Tree whose inner
// node search is classic binary search. Branching nodes hold separator keys
// and child pointers; leaf nodes hold the data items and are linked to
// support range queries (the sequence set). Every performance experiment
// measures the adapted trees against this implementation.
package btree

import (
	"fmt"

	"repro/internal/kary"
	"repro/internal/keys"
	"repro/internal/obs"
	"repro/internal/trace"
)

// Config sizes the tree nodes. The paper derives the per-data-type key
// counts in Table 3 from the 4 KB prefetch boundary; DefaultConfig
// reproduces them.
type Config struct {
	// LeafCap is the maximum number of data items per leaf node.
	LeafCap int
	// BranchCap is the maximum number of separator keys per branching
	// node (one less than the maximum fanout).
	BranchCap int
}

// TableThreeLeafCap returns the paper's Table 3 key count N_L for the key
// width of K: 254, 404, 338 and 242 keys for 8-, 16-, 32- and 64-bit keys.
func TableThreeLeafCap[K keys.Key]() int {
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

// DefaultConfig sizes both node kinds with the paper's Table 3 key counts.
func DefaultConfig[K keys.Key]() Config {
	n := TableThreeLeafCap[K]()
	return Config{LeafCap: n, BranchCap: n}
}

func (c Config) validate() error {
	if c.LeafCap < 2 || c.BranchCap < 2 {
		return fmt.Errorf("btree: node capacities must be at least 2 (got leaf %d, branch %d)",
			c.LeafCap, c.BranchCap)
	}
	return nil
}

// Tree is a B+-Tree mapping distinct keys of integer type K to values of
// type V. The zero value is not usable; construct with New or BulkLoad.
type Tree[K keys.Key, V any] struct {
	cfg   Config
	root  *node[K, V]
	first *node[K, V] // leftmost leaf, head of the sequence set
	size  int
}

// node is either a branching node (children != nil) or a leaf
// (children == nil). In a branching node keys[i] separates children[i]
// from children[i+1]: subtree i holds keys < keys[i], subtree i+1 keys
// ≥ keys[i]. In a leaf, keys[i] is the key of vals[i].
type node[K keys.Key, V any] struct {
	keys     []K
	vals     []V           // leaves only
	children []*node[K, V] // branches only
	next     *node[K, V]   // leaves only: right neighbour in the sequence set
}

func (n *node[K, V]) leaf() bool { return n.children == nil }

// New returns an empty tree with the given configuration. It is the
// Must-style wrapper over NewChecked: it panics on an invalid
// configuration (capacities below 2), for callers using fixed known-good
// configs. New code handling untrusted configuration should call
// NewChecked.
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
	leaf := &node[K, V]{}
	return &Tree[K, V]{cfg: cfg, root: leaf, first: leaf}, nil
}

// NewDefault returns an empty tree with DefaultConfig.
func NewDefault[K keys.Key, V any]() *Tree[K, V] {
	return New[K, V](DefaultConfig[K]())
}

// Len reports the number of data items.
func (t *Tree[K, V]) Len() int { return t.size }

// Config returns the tree's node configuration.
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
//simdtree:kernels ^(Tree\.GetTraced|lowerBound)$

// Get returns the value stored under key, if present.
func (t *Tree[K, V]) Get(key K) (V, bool) {
	v, ok, _ := t.GetTraced(key, nil)
	return v, ok
}

// GetTraced is Get additionally returning the lookup's §4 cost — one node
// visit per level and the binary-search comparisons inside each node —
// and recording the descent into tr: one node step per level, the
// comparison count and the branch taken. The baseline has no SIMD
// compares, so its traces contain only node, scalar and branch steps —
// the contrast the adapted trees' traces are read against. A nil tr
// records nothing.
//
//simdtree:hotpath
func (t *Tree[K, V]) GetTraced(key K, tr *trace.Trace) (v V, ok bool, c obs.Cost) {
	if tr != nil {
		tr.SetStructure("btree")
	}
	n := t.root
	for depth := 0; ; depth++ {
		leaf := n.leaf()
		if tr != nil {
			role := "branch"
			if leaf {
				role = "leaf"
			}
			tr.Node(depth, len(n.keys), "", role)
		}
		i, steps := kary.UpperBoundCount(n.keys, key)
		c.NodeVisits++
		c.ScalarComparisons += uint64(steps)
		if tr != nil {
			tr.Scalar(steps, i)
		}
		if leaf {
			if i > 0 && n.keys[i-1] == key {
				return n.vals[i-1], true, c
			}
			return v, false, c
		}
		if tr != nil {
			tr.Branch(i)
		}
		n = n.children[i]
	}
}

// Contains reports whether key is present.
func (t *Tree[K, V]) Contains(key K) bool {
	_, ok := t.Get(key)
	return ok
}

// Min returns the smallest key and its value; ok is false when empty.
func (t *Tree[K, V]) Min() (k K, v V, ok bool) {
	n := t.first
	if len(n.keys) == 0 {
		return k, v, false
	}
	return n.keys[0], n.vals[0], true
}

// Max returns the largest key and its value; ok is false when empty.
func (t *Tree[K, V]) Max() (k K, v V, ok bool) {
	n := t.root
	for !n.leaf() {
		n = n.children[len(n.children)-1]
	}
	if len(n.keys) == 0 {
		return k, v, false
	}
	i := len(n.keys) - 1
	return n.keys[i], n.vals[i], true
}

// Scan calls fn for every item with lo ≤ key ≤ hi in ascending key order,
// walking the linked leaves, until fn returns false.
func (t *Tree[K, V]) Scan(lo, hi K, fn func(K, V) bool) {
	if lo > hi {
		return
	}
	n := t.root
	for !n.leaf() {
		n = n.children[kary.UpperBound(n.keys, lo)]
	}
	// The first key ≥ lo sits at the upper bound of lo−1; compute it
	// directly to avoid underflow at the domain minimum.
	i := lowerBound(n.keys, lo)
	for n != nil {
		for ; i < len(n.keys); i++ {
			if n.keys[i] > hi {
				return
			}
			if !fn(n.keys[i], n.vals[i]) {
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
		for i := range n.keys {
			if !fn(n.keys[i], n.vals[i]) {
				return
			}
		}
	}
}

// lowerBound returns the index of the first element ≥ v.
//
//simdtree:hotpath
func lowerBound[K keys.Key](xs []K, v K) int {
	lo, hi := 0, len(xs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if xs[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
