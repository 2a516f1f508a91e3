package btree

import (
	"fmt"

	"repro/internal/bitmask"
	"repro/internal/index"
	"repro/internal/kary"
	"repro/internal/keys"
	"repro/internal/obs"
	"repro/internal/shape"
	"repro/internal/simd"
	"repro/internal/trace"
)

// Stores are the two node key stores: the Seg-Tree's linearized k-ary
// search tree (kary.Tree) and the baseline's sorted slice (sorted).
type Stores[K keys.Key] interface {
	kary.Tree[K] | sorted[K]
}

// Store is a node's key store S, kept inline in the node, with the
// in-place key moves the skeleton's writes use; the methods are on *S.
// The node search is not among them, and Scan does not read keys
// through them: both call each store directly (see node.rank).
type Store[K keys.Key, S Stores[K]] interface {
	*S
	// Len reports the number of keys.
	Len() int
	// At returns the key at sorted index i.
	At(i int) K
	// InsertAt adds k at sorted index i, which is k's rank.
	InsertAt(i int, k K)
	// DeleteAt removes the key at sorted index i.
	DeleteAt(i int)
	// ReplaceAt overwrites the key at sorted index i with k, which keeps
	// the order.
	ReplaceAt(i int, k K)
	// Reset replaces the keys with the strictly ascending ks, which the
	// store does not retain.
	Reset(ks []K)
	// SplitInsert inserts k at sorted index i into the full store, keeps
	// the first mid keys and moves the others into the empty store right.
	SplitInsert(i int, k K, mid int, right *S)
	// AppendKeys appends the keys in sorted order to dst.
	AppendKeys(dst []K) []K
	// Validate checks the store's own invariants.
	Validate() error
	// ShapeNode tallies the store as one node at the given depth of a
	// shape report: its keys, its slots (capacity is the node's
	// configured key capacity) and its SIMD registers and padding.
	ShapeNode(rep *shape.Report, depth, capacity int)
}

// Spec is what a structure built on the skeleton fixes: its name, its
// node capacities, and how its key stores search and start out.
type Spec[S any] struct {
	// LeafCap and BranchCap are the maximum key counts of leaf and
	// branching nodes.
	LeafCap, BranchCap int
	// Evaluator is passed to every node search.
	Evaluator bitmask.Evaluator
	// Name names the structure in traces, shape reports and errors.
	Name string
	// Layout names the node layout in trace node steps.
	Layout string
	// Empty is a store without keys; every new node starts as a copy.
	Empty S
}

// Check reports capacities too small for a B+-Tree.
func (s Spec[S]) Check() error {
	if s.LeafCap < 2 || s.BranchCap < 2 {
		return fmt.Errorf("%s: node capacities must be at least 2 (got leaf %d, branch %d)",
			s.Name, s.LeafCap, s.BranchCap)
	}
	return nil
}

// Skeleton is the B+-Tree both structures share: branching nodes hold
// separator keys and child pointers, leaves hold the data items and are
// linked into the sequence set. Descent, splits, borrows, merges, bulk
// loading and every walk are here once; only the node search and the
// key moves vary with the key store S (§3.1: the traversal and the
// split and merge machinery are unaffected by the adaption). The zero
// value is not usable; construct with Build.
type Skeleton[K keys.Key, V any, S Stores[K], PS Store[K, S]] struct {
	root  *node[K, V, S, PS]
	first *node[K, V, S, PS] // leftmost leaf, head of the sequence set
	size  int
	spec  Spec[S]
}

// node is a branching node (children != nil) or a leaf. In a branching
// node key i separates children[i] from children[i+1]: subtree i holds
// keys below it, subtree i+1 keys at or above it. In a leaf key i is the
// key of vals[i]. Children and values are in sorted order beside the key
// store, indexed by the rank its search returns.
type node[K keys.Key, V any, S Stores[K], PS Store[K, S]] struct {
	store    S
	vals     []V                  // leaves only
	children []*node[K, V, S, PS] // branches only
	next     *node[K, V, S, PS]   // leaves only: right neighbour in the sequence set
}

func (n *node[K, V, S, PS]) keys() PS { return &n.store }

func (n *node[K, V, S, PS]) leaf() bool { return n.children == nil }

// rank is the node search: the number of n's keys ≤ key (the child to
// descend to) and, with eq set, whether key is present. It adds the
// search's §4 cost to c and records its steps into tr (nil counts or
// records nothing). search is key prepared by kary.Prepare, and ev
// evaluates the SIMD compares. Naming the two stores makes each search
// a direct call: a method called through the type parameter is an
// indirect call through the instantiation's dictionary, and c would
// escape into it.
//
//simdtree:hotpath
func (n *node[K, V, S, PS]) rank(key K, search simd.Search, ev bitmask.Evaluator, tr *trace.Trace, eq bool, c *obs.Cost) (int, bool) {
	if kt, ok := any(n.keys()).(*kary.Tree[K]); ok {
		if eq {
			return kt.LookupPT(key, search, ev, tr, c)
		}
		return kt.SearchPT(key, search, ev, tr, c), false
	}
	return any(n.keys()).(*sorted[K]).rank(key, tr, c)
}

// newNode returns a node whose store holds ks.
func (t *Skeleton[K, V, S, PS]) newNode(ks []K) *node[K, V, S, PS] {
	n := &node[K, V, S, PS]{store: t.spec.Empty}
	if len(ks) > 0 {
		n.keys().Reset(ks)
	}
	return n
}

// Build returns a tree of spec holding the strictly ascending keys ks
// and their values vs, every node completely filled — the paper's
// initial-filling case (§3.2 and §5.1, "all nodes are completely
// filled"). Nil slices give an empty tree. Capacities below 2, unsorted
// or duplicate keys and mismatched lengths are errors.
func Build[K keys.Key, V any, S Stores[K], PS Store[K, S]](spec Spec[S], ks []K, vs []V) (Skeleton[K, V, S, PS], error) {
	t := Skeleton[K, V, S, PS]{spec: spec}
	if err := spec.Check(); err != nil {
		return t, err
	}
	if len(ks) != len(vs) {
		return t, fmt.Errorf("%s: %d keys but %d values", spec.Name, len(ks), len(vs))
	}
	for i := 1; i < len(ks); i++ {
		if ks[i-1] >= ks[i] {
			return t, fmt.Errorf("%s: bulk-load keys not strictly ascending at index %d", spec.Name, i)
		}
	}
	t.load(ks, vs)
	return t, nil
}

// Len reports the number of data items.
func (t *Skeleton[K, V, S, PS]) Len() int { return t.size }

// Height reports the number of levels (a lone leaf has height 1).
func (t *Skeleton[K, V, S, PS]) Height() int {
	h := 1
	for n := t.root; !n.leaf(); n = n.children[0] {
		h++
	}
	return h
}

// The Get descent and the baseline's node search are zero-allocation hot
// paths; the directive keeps their //simdtree:hotpath annotations
// checked by cmd/simdvet. The Seg-Tree's node search is kary's.
//
//simdtree:kernels ^(Skeleton\.GetTraced|node\.rank|sorted\.rank)$

// Get returns the value stored under key, if present.
func (t *Skeleton[K, V, S, PS]) Get(key K) (V, bool) {
	v, ok, _ := t.GetTraced(key, nil)
	return v, ok
}

// GetTraced is Get additionally returning the lookup's §4 cost — one node
// visit per level plus each node search's compares — and recording the
// descent into tr: one node step per level, the node search's own steps
// and the branch taken. A nil tr records nothing.
//
//simdtree:hotpath
func (t *Skeleton[K, V, S, PS]) GetTraced(key K, tr *trace.Trace) (v V, ok bool, c obs.Cost) {
	if tr != nil {
		tr.SetStructure(t.spec.Name)
	}
	ev := t.spec.Evaluator
	search := kary.Prepare(key)
	n := t.root
	depth := 0
	for !n.leaf() {
		if tr != nil {
			tr.Node(depth, n.keys().Len(), t.spec.Layout, "branch")
		}
		i, _ := n.rank(key, search, ev, tr, false, &c)
		if tr != nil {
			tr.Branch(i)
		}
		n = n.children[i]
		depth++
	}
	if tr != nil {
		tr.Node(depth, n.keys().Len(), t.spec.Layout, "leaf")
	}
	i, found := n.rank(key, search, ev, tr, true, &c)
	if found {
		return n.vals[i-1], true, c
	}
	return v, false, c
}

// Contains reports whether key is present.
func (t *Skeleton[K, V, S, PS]) Contains(key K) bool {
	_, ok := t.Get(key)
	return ok
}

// Min returns the smallest key and its value; ok is false when empty.
func (t *Skeleton[K, V, S, PS]) Min() (k K, v V, ok bool) {
	n := t.first
	if n.keys().Len() == 0 {
		return k, v, false
	}
	return n.keys().At(0), n.vals[0], true
}

// Max returns the largest key and its value; ok is false when empty.
func (t *Skeleton[K, V, S, PS]) Max() (k K, v V, ok bool) {
	n := t.root
	for !n.leaf() {
		n = n.children[len(n.children)-1]
	}
	i := n.keys().Len() - 1
	if i < 0 {
		return k, v, false
	}
	return n.keys().At(i), n.vals[i], true
}

// Scan calls fn for every item with lo ≤ key ≤ hi in ascending key order,
// walking the linked leaves, until fn returns false.
func (t *Skeleton[K, V, S, PS]) Scan(lo, hi K, fn func(K, V) bool) {
	if lo > hi {
		return
	}
	ev := t.spec.Evaluator
	search := kary.Prepare(lo)
	n := t.root
	for !n.leaf() {
		i, _ := n.rank(lo, search, ev, nil, false, nil)
		n = n.children[i]
	}
	// The first key ≥ lo: the rank of lo, one back if lo is present.
	i, found := n.rank(lo, search, ev, nil, true, nil)
	if found {
		i--
	}
	for ; n != nil; n, i = n.next, 0 {
		switch ks := any(n.keys()).(type) {
		case *kary.Tree[K]:
			for ; i < ks.Len(); i++ {
				if k := ks.At(i); k > hi || !fn(k, n.vals[i]) {
					return
				}
			}
		case *sorted[K]:
			for ; i < len(ks.ks); i++ {
				if k := ks.ks[i]; k > hi || !fn(k, n.vals[i]) {
					return
				}
			}
		}
	}
}

// Ascend calls fn for every item in ascending key order until fn returns
// false.
func (t *Skeleton[K, V, S, PS]) Ascend(fn func(K, V) bool) {
	var buf []K
	for n := t.first; n != nil; n = n.next {
		buf = n.keys().AppendKeys(buf[:0])
		for i, k := range buf {
			if !fn(k, n.vals[i]) {
				return
			}
		}
	}
}

// GetBatchInto looks up ks into vals and found, in input order, with the
// shared interleaved descent (index.Interleave): up to 16 probes descend
// together, one node per round, so the node loads of different probes
// overlap in the memory system. Each step is one node search, so batched
// benchmarks of the two structures compare node searches, not schedules.
func (t *Skeleton[K, V, S, PS]) GetBatchInto(ks []K, vals []V, found []bool) {
	ev := t.spec.Evaluator
	index.Interleave(ks, vals, found, t.root, func(n *node[K, V, S, PS], i int) (next *node[K, V, S, PS], v V, ok bool) {
		k := ks[i]
		leaf := n.leaf()
		j, hit := n.rank(k, kary.Prepare(k), ev, nil, leaf, nil)
		switch {
		case !leaf:
			return n.children[j], v, false
		case hit:
			return nil, n.vals[j-1], true
		}
		return nil, v, false
	})
}

// GetBatch looks up many keys at once: GetBatchInto into fresh slices.
func (t *Skeleton[K, V, S, PS]) GetBatch(ks []K) ([]V, []bool) { return index.GetBatch[K, V](t, ks) }

// ContainsBatch reports presence for many keys at once, in input order.
func (t *Skeleton[K, V, S, PS]) ContainsBatch(ks []K) []bool {
	return index.ContainsBatch[K, V](t, ks)
}

// IndexStats summarizes the tree in the structure-independent terms of
// the index layer, projected from Shape.
func (t *Skeleton[K, V, S, PS]) IndexStats() index.Stats { return index.StatsOf(t.Shape()) }
