// Package segtree implements the paper's Segment-Tree (§3): a B+-Tree
// whose inner-node search is k-ary search with (emulated) SIMD
// instructions instead of binary search.
//
// The tree is the shared B+-Tree skeleton (btree.Skeleton) with a
// linearized k-ary search tree (kary.Tree) as each node's key store, in
// breadth-first or depth-first order. Child pointers and leaf values
// stay in plain linear order, because the k-ary search returns the same
// position a binary search on the sorted keys would (§3.1, "only the
// keys in the k-ary search tree must be linearized; pointers are left
// unchanged"). Updates therefore rewrite at most the keys of the nodes
// they touch — the paper's locality property.
package segtree

import (
	"fmt"

	"repro/internal/bitmask"
	"repro/internal/btree"
	"repro/internal/index"
	"repro/internal/kary"
	"repro/internal/keys"
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
	// Lanes selects the nodes' lane width: KeyLanes is the paper's node,
	// every key at K's width; NarrowLanes stores each node's keys
	// relative to its smallest, in the narrowest width that spans them
	// (DESIGN.md, "Narrow-lane nodes").
	Lanes kary.LanePolicy
}

// DefaultConfig sizes nodes with the paper's Table 3 key counts and uses
// the paper's preferred depth-first layout and popcount evaluation, with
// narrow-lane nodes. The paper's experiments pin KeyLanes.
func DefaultConfig[K keys.Key]() Config {
	n := btree.TableThreeLeafCap[K]()
	return Config{
		LeafCap:   n,
		BranchCap: n,
		Layout:    kary.DepthFirst,
		Evaluator: bitmask.Popcount,
		Lanes:     kary.NarrowLanes,
	}
}

func spec[K keys.Key](c Config) btree.Spec[kary.Tree[K]] {
	return btree.Spec[kary.Tree[K]]{
		Name:      "segtree",
		Layout:    c.Layout.String(),
		LeafCap:   c.LeafCap,
		BranchCap: c.BranchCap,
		Evaluator: c.Evaluator,
		Empty:     kary.Empty[K](c.Layout, c.Lanes),
	}
}

// build is btree.Build for a Seg-Tree of cfg, which it checks first.
func build[K keys.Key, V any](cfg Config, ks []K, vs []V) (btree.Skeleton[K, V, kary.Tree[K], *kary.Tree[K]], error) {
	if cfg.Lanes > kary.NarrowLanes {
		return btree.Skeleton[K, V, kary.Tree[K], *kary.Tree[K]]{}, fmt.Errorf("segtree: unknown lane policy %d", cfg.Lanes)
	}
	return btree.Build[K, V](spec[K](cfg), ks, vs)
}

// Tree is a Seg-Tree mapping distinct keys of integer type K to values of
// type V. The zero value is not usable; construct with New or BulkLoad.
type Tree[K keys.Key, V any] struct {
	btree.Skeleton[K, V, kary.Tree[K], *kary.Tree[K]]
	cfg Config
}

// The Seg-Tree satisfies the module-wide index contract and the MVCC
// layer's path-copying write interface.
var _ index.Forker[uint32, int] = (*Tree[uint32, int])(nil)

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
	s, err := build[K, V](cfg, nil, nil)
	if err != nil {
		return nil, err
	}
	return &Tree[K, V]{s, cfg}, nil
}

// NewDefault returns an empty tree with DefaultConfig.
func NewDefault[K keys.Key, V any]() *Tree[K, V] {
	return New[K, V](DefaultConfig[K]())
}

// BulkLoad builds a tree from strictly ascending keys and their values,
// filling every node completely — the paper's initial-filling case (§3.2),
// which linearizes each node exactly once. It panics on an invalid
// configuration, unsorted or duplicate keys or mismatched slice lengths.
func BulkLoad[K keys.Key, V any](cfg Config, ks []K, vs []V) *Tree[K, V] {
	s, err := build(cfg, ks, vs)
	if err != nil {
		panic(err) //simdtree:allowpanic bulk-load input contract, documented above
	}
	return &Tree[K, V]{s, cfg}
}

// Config returns the tree's configuration.
func (t *Tree[K, V]) Config() Config { return t.cfg }

// Fork implements index.Forker: a fork of the tree, in dst's header when
// dst is a tree (see btree.Skeleton.ForkTo).
func (t *Tree[K, V]) Fork(dst index.Forker[K, V], gen, safe uint64) index.Forker[K, V] {
	f, _ := dst.(*Tree[K, V])
	if f == nil {
		f = &Tree[K, V]{cfg: t.cfg}
	}
	t.ForkTo(&f.Skeleton, gen, safe)
	return f
}
