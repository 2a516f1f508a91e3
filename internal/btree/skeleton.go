package btree

import (
	"fmt"

	"repro/internal/bitmask"
	"repro/internal/index"
	"repro/internal/kary"
	"repro/internal/keys"
	"repro/internal/obs"
	"repro/internal/shape"
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
	// Reserve makes room for n keys, so that growing the store to n keys
	// allocates nothing more.
	Reserve(n int)
	// CopyFrom makes the store a copy of src that shares no storage with
	// it, in storage of capacity c (src's CopyCap): the store's own
	// when its capacity is exactly c, else new.
	CopyFrom(src *S, c int)
	// Cap reports the capacity of the store's storage. CopyCap reports
	// the capacity a copy of the store with room for n keys takes: the
	// allocator size class of its stored keys plus room for one more,
	// or for n keys when n is larger. A retired store whose
	// Cap equals a node's CopyCap holds the storage its copy reuses.
	// Both are in the store's own unit.
	Cap() int
	CopyCap(n int) int
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
// separator keys and child pointers, leaves hold the data items.
// Descent, splits, borrows, merges, bulk loading and every walk are here
// once; only the node search and the key moves vary with the key store S
// (§3.1: the traversal and the split and merge machinery are unaffected
// by the adaption). The zero value is not usable; construct with Build.
//
// A Skeleton is also the version header of path copying: ForkTo copies
// the header, which is what a Fork of the trees built on it does
// (index.Forker), and the fork's writes copy each node they change that
// an older write stamped (own). There is no leaf chain: a copied leaf
// could not relink its left neighbour without copying that too, so
// ordered walks keep a root-to-leaf stack (cursor).
type Skeleton[K keys.Key, V any, S Stores[K], PS Store[K, S]] struct {
	root *node[K, V, S, PS]
	size int
	spec Spec[S]
	// gen stamps the nodes the running write creates; a node stamped
	// below it is copied before it changes. It is 0 in a tree never
	// forked, whose nodes are all stamped 0. safe is the sequence at or
	// below which retired nodes may be reused, copied counts this fork's
	// copies and copyAllocs those that allocated storage, and pool is
	// shared by every fork of one tree (nil until the first Fork).
	gen        uint64
	safe       uint64
	copied     int
	copyAllocs int
	pool       *pool[K, V, S, PS]
}

// pool is the writer state every fork of one tree shares: the nodes its
// writes retired, each with the key store it held, and the value and
// child arrays they held, split off. All three are recycled by size
// class, so a copy takes storage of exactly the class it needs,
// whichever kind of node held it.
type pool[K keys.Key, V any, S Stores[K], PS Store[K, S]] struct {
	nodes    index.Recycler[*node[K, V, S, PS]]
	vals     index.Arrays[V]
	children index.Arrays[*node[K, V, S, PS]]
	// path holds, for the first copies of a write, the node the last
	// write's copy at that position retired and that write's gen, whole.
	path [8]spare[K, V, S, PS]
}

// spare is a retired node and the gen of the write that retired it.
type spare[K keys.Key, V any, S Stores[K], PS Store[K, S]] struct {
	node *node[K, V, S, PS]
	gen  uint64
}

func newPool[K keys.Key, V any, S Stores[K], PS Store[K, S]]() *pool[K, V, S, PS] {
	return &pool[K, V, S, PS]{vals: index.NewArrays[V](), children: index.NewArrays[*node[K, V, S, PS]]()}
}

// node is a branching node (children != nil) or a leaf. In a branching
// node key i separates children[i] from children[i+1]: subtree i holds
// keys below it, subtree i+1 keys at or above it. In a leaf key i is the
// key of vals[i]. Children and values are in sorted order beside the key
// store, indexed by the rank its search returns. gen is the stamp of the
// write that created the node.
type node[K keys.Key, V any, S Stores[K], PS Store[K, S]] struct {
	store    S
	vals     []V                  // leaves only
	children []*node[K, V, S, PS] // branches only
	gen      uint64
}

func (n *node[K, V, S, PS]) keys() PS { return &n.store }

func (n *node[K, V, S, PS]) leaf() bool { return n.children == nil }

// rank is the node search: the number of n's keys ≤ key (the child to
// descend to) and, with eq set, whether key is present. It adds the
// search's §4 cost to c and records its steps into tr (nil counts or
// records nothing). reg is the descent's search register, which the
// k-ary store fills for its lane width and base and the baseline's
// binary search never reads, and ev evaluates the SIMD compares. Naming
// the two stores makes each search a direct call: a method called
// through the type parameter is an indirect call through the
// instantiation's dictionary, and c would escape into it.
//
//simdtree:hotpath
func (n *node[K, V, S, PS]) rank(key K, reg *kary.Register, ev bitmask.Evaluator, tr *trace.Trace, eq bool, c *obs.Cost) (int, bool) {
	if kt, ok := any(n.keys()).(*kary.Tree[K]); ok {
		if eq {
			return kt.LookupPT(key, reg, ev, tr, c)
		}
		return kt.SearchPT(key, reg, ev, tr, c), false
	}
	return any(n.keys()).(*sorted[K]).rank(key, tr, c)
}

// newNode returns a node whose store holds ks, stamped with the running
// write's gen.
func (t *Skeleton[K, V, S, PS]) newNode(ks []K) *node[K, V, S, PS] {
	n := &node[K, V, S, PS]{store: t.spec.Empty, gen: t.gen}
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
// and the branch taken. A nil tr records nothing. It names the two
// stores itself rather than through node.rank, whose three calls keep
// it out of line: a Get then makes one call per node search, not two.
//
//simdtree:hotpath
func (t *Skeleton[K, V, S, PS]) GetTraced(key K, tr *trace.Trace) (v V, ok bool, c obs.Cost) {
	if tr != nil {
		tr.SetStructure(t.spec.Name)
	}
	ev := t.spec.Evaluator
	var reg kary.Register
	n := t.root
	depth := 0
	for !n.leaf() {
		if tr != nil {
			tr.Node(depth, n.keys().Len(), t.spec.Layout, "branch")
		}
		var i int
		if kt, ok := any(n.keys()).(*kary.Tree[K]); ok {
			i = kt.SearchPT(key, &reg, ev, tr, &c)
		} else {
			i, _ = any(n.keys()).(*sorted[K]).rank(key, tr, &c)
		}
		if tr != nil {
			tr.Branch(i)
		}
		n = n.children[i]
		depth++
	}
	if tr != nil {
		tr.Node(depth, n.keys().Len(), t.spec.Layout, "leaf")
	}
	var i int
	var found bool
	if kt, ok := any(n.keys()).(*kary.Tree[K]); ok {
		i, found = kt.LookupPT(key, &reg, ev, tr, &c)
	} else {
		i, found = any(n.keys()).(*sorted[K]).rank(key, tr, &c)
	}
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
	n := t.root
	for !n.leaf() {
		n = n.children[0]
	}
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

// maxHeight bounds a cursor's stack: every node but the root has at least
// two children, so 64 levels hold more keys than an int counts.
const maxHeight = 64

// cursor walks the leaves left to right along the path from the root:
// path[d] is the branch at depth d and the child the walk is in.
type cursor[K keys.Key, V any, S Stores[K], PS Store[K, S]] struct {
	path [maxHeight]struct {
		n *node[K, V, S, PS]
		i int
	}
	depth int
}

// down descends from n through child i of each branch, as rank picks it,
// to a leaf, which it returns.
func (c *cursor[K, V, S, PS]) down(n *node[K, V, S, PS], rank func(*node[K, V, S, PS]) int) *node[K, V, S, PS] {
	for !n.leaf() {
		i := rank(n)
		c.path[c.depth].n, c.path[c.depth].i = n, i
		c.depth++
		n = n.children[i]
	}
	return n
}

// next returns the leaf right of the one the cursor is at, nil after the
// last.
func (c *cursor[K, V, S, PS]) next() *node[K, V, S, PS] {
	for c.depth > 0 {
		top := &c.path[c.depth-1]
		if top.i+1 < len(top.n.children) {
			top.i++
			return c.down(top.n.children[top.i], leftmost)
		}
		c.depth--
	}
	return nil
}

// leftmost is the rank of a descent to the smallest key.
func leftmost[K keys.Key, V any, S Stores[K], PS Store[K, S]](*node[K, V, S, PS]) int { return 0 }

// Scan calls fn for every item with lo ≤ key ≤ hi in ascending key order,
// walking the leaves from lo's, until fn returns false.
func (t *Skeleton[K, V, S, PS]) Scan(lo, hi K, fn func(K, V) bool) {
	if lo > hi {
		return
	}
	ev := t.spec.Evaluator
	var reg kary.Register
	var c cursor[K, V, S, PS]
	n := c.down(t.root, func(n *node[K, V, S, PS]) int {
		i, _ := n.rank(lo, &reg, ev, nil, false, nil)
		return i
	})
	// The first key ≥ lo: the rank of lo, one back if lo is present.
	i, found := n.rank(lo, &reg, ev, nil, true, nil)
	if found {
		i--
	}
	for ; n != nil; n, i = c.next(), 0 {
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
	var c cursor[K, V, S, PS]
	for n := c.down(t.root, leftmost); n != nil; n = c.next() {
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
		var reg kary.Register
		j, hit := n.rank(k, &reg, ev, nil, leaf, nil)
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
