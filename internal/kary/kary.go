// Package kary implements the paper's k-ary search on linearized k-ary
// search trees (§2.2, §3.2, §3.3).
//
// A sorted list of keys is transformed into a "linearized" k-ary search
// tree: the k−1 separator keys of every tree node become 16 consecutive
// bytes, so one emulated 128-bit SIMD load fetches a whole node. Two
// linearizations are provided — breadth-first (paper Formula 1, searched by
// Algorithm 5) and depth-first (Formula 2, Algorithm 4).
//
// Arbitrary key counts (§3.3) are supported by replenishing incomplete
// nodes with the largest key S_max. The breadth-first layout stores a
// complete k-ary tree — all levels full except the last, which is filled
// left to right — which reproduces the stored key counts N_S of the
// paper's Table 3 exactly (256, 408, 344, 242 for the four data types).
// The depth-first layout keeps the perfect-tree shape required by
// Algorithm 4's uniform subtree strides, replenishing interior holes and
// truncating trailing pad-only nodes.
//
// The search result is the paper's contract: the index, in the original
// sorted order, of the first key strictly greater than the search key —
// identical to what binary search on the sorted list returns, so a Seg-Tree
// can navigate its unchanged pointer array with it.
package kary

import (
	"fmt"
	"slices"

	"repro/internal/keys"
	"repro/internal/simd"
)

// Layout selects the linearization order of a k-ary search tree.
type Layout int

const (
	// BreadthFirst stores tree levels contiguously, root level first
	// (paper Formula 1, searched by Algorithm 5).
	BreadthFirst Layout = iota
	// DepthFirst stores each node followed by its subtrees left to right
	// (paper Formula 2, searched by Algorithm 4).
	DepthFirst
)

// String returns the paper's name for the layout.
func (l Layout) String() string {
	switch l {
	case BreadthFirst:
		return "breadth-first"
	case DepthFirst:
		return "depth-first"
	default:
		return "unknown"
	}
}

// Layouts lists both linearizations, for experiments that sweep them.
var Layouts = []Layout{BreadthFirst, DepthFirst}

// Tree is a linearized k-ary search tree over a sorted list of keys — the
// key storage of one Seg-Tree node. K (as in "k-ary") is fixed by the key
// type: k−1 keys fill one 128-bit register (paper Table 2).
type Tree[K keys.Key] struct {
	layout Layout
	n      int      // real key count
	r      int      // levels of the k-ary search tree
	m      int      // breadth-first only: number of last-level nodes
	stored int      // stored key slots, multiple of k−1 (incl. replenishment)
	data   []byte   // packed realigned lanes, stored × key width bytes
	smax   K        // largest real key; padding value (§3.3)
	slots  *slotMap // sorted→slot map of the geometry; nil while empty

	// Geometry cached at build time so searches never recompute it.
	w     uint8 // key width in bytes
	k     uint8 // k-ary order (lanes+1)
	lanes uint8 // keys per SIMD register (k−1)
}

// Prepare broadcasts the search key v into a reusable SIMD search
// register. A tree descent (Seg-Tree, Seg-Trie) prepares once and passes
// the register to every node search, hoisting the loop-invariant work
// out of the path — the same hoisting real SSE code does.
func Prepare[K keys.Key](v K) simd.Search {
	w := keys.Width[K]()
	return simd.NewSearch(w, keys.OrderedBits(v))
}

// pow returns k^e for small non-negative e.
func pow(k, e int) int {
	p := 1
	for ; e > 0; e-- {
		p *= k
	}
	return p
}

// levels returns the minimal number of k-ary tree levels r with k^r−1 ≥ n.
func levels(n, k int) int {
	r, c := 0, 1
	for c-1 < n {
		c *= k
		r++
	}
	return r
}

// Build linearizes a sorted list of distinct keys into a k-ary search tree
// with the given layout. The input slice is not retained. Build is the
// Must-style wrapper over BuildChecked: it panics if the keys are not
// strictly ascending (tree nodes hold distinct keys), for callers building
// from literals or already-validated data. New code handling untrusted
// input should call BuildChecked.
func Build[K keys.Key](sorted []K, layout Layout) *Tree[K] {
	t, err := BuildChecked(sorted, layout)
	if err != nil {
		panic(err.Error()) //simdtree:allowpanic Must-style wrapper; BuildChecked is the error-returning form
	}
	return t
}

// BuildChecked is Build returning an error wrapping keys.ErrUnsorted
// instead of panicking when the input is not strictly ascending.
func BuildChecked[K keys.Key](sorted []K, layout Layout) (*Tree[K], error) {
	for i := 1; i < len(sorted); i++ {
		if sorted[i-1] >= sorted[i] {
			return nil, fmt.Errorf("kary: %w at index %d", keys.ErrUnsorted, i)
		}
	}
	return BuildUnchecked(sorted, layout), nil
}

// BuildUnchecked is Build without the sortedness check, for callers (the
// Seg-Tree) that maintain sorted keys themselves.
func BuildUnchecked[K keys.Key](sorted []K, layout Layout) *Tree[K] {
	t := &Tree[K]{}
	t.build(sorted, layout)
	return t
}

// build makes t a fresh linearization of sorted: every slot of the
// storage starts as a pad holding S_max, then each key is written to its
// slot through the geometry's slot map.
func (t *Tree[K]) build(sorted []K, layout Layout) {
	k, w, n := keys.K[K](), keys.Width[K](), len(sorted)
	*t = Tree[K]{layout: layout, n: n, w: uint8(w), k: uint8(k), lanes: uint8(k - 1)}
	if n == 0 {
		return
	}
	t.r = levels(n, k)
	t.smax = sorted[n-1]
	g := geometry{layout: layout, k: k, r: t.r}
	if layout == BreadthFirst {
		// Complete tree: upper r−1 levels are full (k^(r−1)−1 keys), the
		// last level holds m left-packed nodes.
		t.m = (n - pow(k, t.r-1) + k - 1) / (k - 1)
		g.m = t.m
	}
	t.slots = slotsFor(g)
	t.resize(int(t.slots.bound[n]))
	for s, x := range sorted {
		keys.PutAt(t.data, int(t.slots.slot[s]), x)
	}
}

// Reset makes t a fresh linearization of the strictly ascending keys
// sorted, in t's layout; sorted is not retained.
func (t *Tree[K]) Reset(sorted []K) { t.build(sorted, t.layout) }

// SplitInsert inserts x at sorted index pos into the tree, whose
// geometry is full, keeps the first mid keys and makes right a fresh
// linearization of the others, in t's layout. Both halves are built
// straight from the sorted keys: linearizing the overfull node first
// would only be thrown away.
func (t *Tree[K]) SplitInsert(pos int, x K, mid int, right *Tree[K]) {
	ks := slices.Insert(t.AppendKeys(make([]K, 0, t.n+1)), pos, x)
	right.build(ks[mid:], t.layout)
	t.build(ks[:mid], t.layout)
}

// Layout reports the linearization order of the tree.
func (t *Tree[K]) Layout() Layout { return t.layout }

// Len reports the number of real keys.
func (t *Tree[K]) Len() int { return t.n }

// Levels reports the number of k-ary search tree levels r (the number of
// SIMD comparisons one search performs).
func (t *Tree[K]) Levels() int { return t.r }

// Stored reports the number of stored key slots including replenishment —
// the paper's N_S (Table 3) for the breadth-first layout.
func (t *Tree[K]) Stored() int { return t.stored }

// Max returns the largest real key; ok is false for an empty tree.
func (t *Tree[K]) Max() (max K, ok bool) {
	if t.n == 0 {
		return max, false
	}
	return t.smax, true
}

// pos maps a sorted position to its storage slot under the tree's layout.
func (t *Tree[K]) pos(s int) int { return int(t.slots.slot[s]) }

// At returns the key at the given index of the original sorted order, by
// applying the layout's position transformation.
func (t *Tree[K]) At(s int) K {
	if s < 0 || s >= t.n {
		panic(fmt.Sprintf("kary: index %d out of range [0,%d)", s, t.n)) //simdtree:allowpanic index contract, mirrors built-in slice indexing
	}
	return keys.GetAt[K](t.data, t.pos(s))
}

// Keys delinearizes the tree back into its sorted key list.
func (t *Tree[K]) Keys() []K { return t.AppendKeys(make([]K, 0, t.n)) }

// AppendKeys appends the tree's keys in sorted order to dst and returns
// the extended slice.
func (t *Tree[K]) AppendKeys(dst []K) []K {
	for s := 0; s < t.n; s++ {
		dst = append(dst, keys.GetAt[K](t.data, t.pos(s)))
	}
	return dst
}

// Linearized returns the stored slot values in storage order, including
// replenishment pads — the layout the SIMD loads see. Used by inspection
// tools and tests.
func (t *Tree[K]) Linearized() []K {
	return keys.Unpack[K](t.data)
}

// Validate checks the structural invariants: delinearized keys strictly
// ascending, stored a multiple of k−1, maximum consistent.
func (t *Tree[K]) Validate() error {
	if t.w == 0 {
		return fmt.Errorf("kary: tree not constructed with Build")
	}
	if t.n == 0 {
		if t.stored != 0 || len(t.data) != 0 {
			return fmt.Errorf("kary: empty tree with storage")
		}
		return nil
	}
	if t.stored%int(t.lanes) != 0 {
		return fmt.Errorf("kary: stored %d not a multiple of k-1=%d", t.stored, t.lanes)
	}
	ks := t.Keys()
	for i := 1; i < len(ks); i++ {
		if ks[i-1] >= ks[i] {
			return fmt.Errorf("kary: delinearized keys not sorted (or duplicate) at index %d", i)
		}
	}
	if ks[len(ks)-1] != t.smax {
		return fmt.Errorf("kary: smax mismatch")
	}
	return nil
}
