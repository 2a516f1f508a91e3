// Package btree is the in-memory B+-Tree of the paper, written once
// (Skeleton) and generic over the key store that searches and holds
// each node's keys. Branching nodes hold separator keys and child
// pointers; leaf nodes hold the data items. Range queries walk the
// leaves along a root-to-leaf stack rather than a leaf chain, so a write
// can copy the nodes on its path without touching their neighbours:
// the skeleton's trees implement index.Forker, the path-copying write
// interface the MVCC layer (index.Versioned) publishes through.
//
// Tree is the paper's baseline: a sorted key slice per node, searched by
// classic binary search. Every performance experiment measures the
// adapted trees against it. The Seg-Tree (package segtree) is the same
// skeleton with a linearized k-ary search tree per node (§3.1).
package btree

import (
	"fmt"
	"slices"

	"repro/internal/index"
	"repro/internal/kary"
	"repro/internal/keys"
	"repro/internal/obs"
	"repro/internal/shape"
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

func spec[K keys.Key](c Config) Spec[sorted[K]] {
	return Spec[sorted[K]]{Name: "btree", LeafCap: c.LeafCap, BranchCap: c.BranchCap}
}

// Tree is a B+-Tree mapping distinct keys of integer type K to values of
// type V, searching each node by binary search. The zero value is not
// usable; construct with New or BulkLoad.
type Tree[K keys.Key, V any] struct {
	Skeleton[K, V, sorted[K], *sorted[K]]
	cfg Config
}

// The baseline B+-Tree satisfies the module-wide index contract and the
// MVCC layer's path-copying write interface.
var _ index.Forker[uint32, int] = (*Tree[uint32, int])(nil)

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
	s, err := Build[K, V](spec[K](cfg), nil, nil)
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
// filling every node completely — the paper's initial-filling fast path
// (§3.2 and §5.1). It panics on an invalid configuration, unsorted or
// duplicate keys or mismatched slice lengths.
func BulkLoad[K keys.Key, V any](cfg Config, ks []K, vs []V) *Tree[K, V] {
	s, err := Build(spec[K](cfg), ks, vs)
	if err != nil {
		panic(err) //simdtree:allowpanic bulk-load input contract, documented above
	}
	return &Tree[K, V]{s, cfg}
}

// Config returns the tree's node configuration.
func (t *Tree[K, V]) Config() Config { return t.cfg }

// Fork implements index.Forker: a fork of the tree, in dst's header when
// dst is a tree (see Skeleton.ForkTo).
func (t *Tree[K, V]) Fork(dst index.Forker[K, V], gen, safe uint64) index.Forker[K, V] {
	f, _ := dst.(*Tree[K, V])
	if f == nil {
		f = &Tree[K, V]{cfg: t.cfg}
	}
	t.ForkTo(&f.Skeleton, gen, safe)
	return f
}

// sorted is the baseline's key store: a node's keys in a sorted slice.
type sorted[K keys.Key] struct{ ks []K }

func (s *sorted[K]) Len() int                { return len(s.ks) }
func (s *sorted[K]) At(i int) K              { return s.ks[i] }
func (s *sorted[K]) AppendKeys(dst []K) []K  { return append(dst, s.ks...) }
func (s *sorted[K]) Reset(ks []K)            { s.ks = append(s.ks[:0], ks...) }
func (s *sorted[K]) InsertAt(i int, k K)     { s.ks = slices.Insert(s.ks, i, k) }
func (s *sorted[K]) DeleteAt(i int)          { s.ks = slices.Delete(s.ks, i, i+1) }
func (s *sorted[K]) ReplaceAt(i int, k K)    { s.ks[i] = k }
func (s *sorted[K]) Reserve(n int)           { s.ks = slices.Grow(s.ks, max(n-len(s.ks), 0)) }
func (s *sorted[K]) CopyFrom(src *sorted[K]) { s.ks = index.Clone(s.ks, src.ks) }

func (s *sorted[K]) SplitInsert(i int, k K, mid int, right *sorted[K]) {
	s.ks = slices.Insert(s.ks, i, k)
	right.Reset(s.ks[mid:])
	s.ks = s.ks[:mid]
}

// rank is the baseline's node search, classic binary search
// (kary.UpperBoundCount): the rank of v and whether v is present. Its
// cost is one node visit and the comparison steps, and its trace one
// scalar step: the baseline has no SIMD compares, the contrast the
// adapted trees' traces are read against.
//
//simdtree:hotpath
func (s *sorted[K]) rank(v K, tr *trace.Trace, c *obs.Cost) (int, bool) {
	i, steps := kary.UpperBoundCount(s.ks, v)
	if c != nil {
		c.NodeVisits++
		c.ScalarComparisons += uint64(steps)
	}
	if tr != nil {
		tr.Scalar(steps, i)
	}
	return i, i > 0 && s.ks[i-1] == v
}

// Validate checks that the keys are strictly ascending.
func (s *sorted[K]) Validate() error {
	for i := 1; i < len(s.ks); i++ {
		if s.ks[i-1] >= s.ks[i] {
			return fmt.Errorf("keys out of order at index %d", i)
		}
	}
	return nil
}

// ShapeNode tallies the node with its configured capacity as its slots —
// the classic B-Tree fill-factor denominator — and its keys at the key
// width. The baseline performs no SIMD loads, so registers, lanes,
// padding and replenishment stay zero.
func (s *sorted[K]) ShapeNode(rep *shape.Report, depth, capacity int) {
	rep.Node(depth, len(s.ks), capacity)
	rep.KeyBytes += int64(len(s.ks) * keys.Width[K]())
}
