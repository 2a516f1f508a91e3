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
	"repro/internal/sizeclass"
)

// Layout selects the linearization order of a k-ary search tree.
type Layout uint8

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

// LanePolicy selects the lane width of a tree's SIMD registers.
type LanePolicy uint8

const (
	// KeyLanes stores every key at its type's width: the paper's node,
	// whose k is the key type's (Table 2).
	KeyLanes LanePolicy = iota
	// NarrowLanes stores each key as its distance from the node's base,
	// in the narrowest lane width that spans the node's keys, so a node
	// of close keys searches with a wider k (§4's shared-prefix idea,
	// applied to a B+-Tree node).
	NarrowLanes
)

// String names the policy.
func (p LanePolicy) String() string {
	if p == NarrowLanes {
		return "narrow"
	}
	return "key"
}

// Tree is a linearized k-ary search tree over a sorted list of keys — the
// key storage of one Seg-Tree node. Each key is stored as its distance
// from base in the keys.OrderedBits domain, in lanes of w bytes; k−1
// lanes fill one 128-bit register (paper Table 2). At the key type's
// width base is 0 and a lane is the key itself; a NarrowLanes tree picks
// a narrower width whenever its (re)built keys span fewer than 2^(8w)
// values. Nothing a Tree stores depends on K: K only converts keys to
// and from ordered bits at its methods.
type Tree[K keys.Key] struct {
	linear
}

// linear is a Tree without its key type: the lanes, their geometry and
// the node search over ordered bits. The key type's width and sign,
// kept as fields, map a key's bits to ordered bits. Its methods are
// compiled once, in this package, for every key type (see lookup).
type linear struct {
	n      int      // real key count
	r      int      // levels of the k-ary search tree
	m      int      // breadth-first only: number of last-level nodes
	stored int      // stored key slots, multiple of k−1 (incl. replenishment)
	data   []byte   // packed realigned lanes, stored × w bytes
	slots  *slotMap // sorted→slot map of the geometry; nil while empty
	base   uint64   // ordered bits of the key lane value 0 stands for
	top    uint64   // ordered bits of S_max, the largest real key and padding value (§3.3)

	// Geometry cached at build time so searches never recompute it.
	layout Layout
	w      uint8 // lane width in bytes
	k      uint8 // k-ary order (lanes+1)
	lanes  uint8 // lanes per SIMD register (k−1)
	narrow bool  // NarrowLanes: (re)builds pick the narrowest width
	kw     uint8 // key type's width in bytes
	signed bool  // key type is signed
}

// Register is a search key prepared for the node searches of one
// descent: its lanes broadcast into a SIMD search register at one node's
// lane width and base. The zero Register is empty. A node search fills
// it, and refills it only where its node's width or base differs, so a
// descent through nodes of one width broadcasts the key once — the
// hoisting real SSE code does — and a store that never reads it (the
// baseline's binary search) never pays for it.
type Register struct {
	search simd.Search
	base   uint64
}

// Empty returns a tree without keys in the given layout and lane policy.
func Empty[K keys.Key](layout Layout, lanes LanePolicy) Tree[K] {
	var t Tree[K]
	t.narrow = lanes == NarrowLanes
	t.build(nil, layout, nil)
	return t
}

// Lanes reports the tree's lane policy.
func (t *Tree[K]) Lanes() LanePolicy {
	if t.narrow {
		return NarrowLanes
	}
	return KeyLanes
}

// Width reports the lane width in bytes of the tree's registers.
func (t *Tree[K]) Width() int { return int(t.w) }

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
	t.build(sorted, layout, nil)
	return t
}

// build makes t a fresh linearization of sorted at the lane width its
// span fits (see reset), in storage's array when it fits there (storage
// may be t's own, emptied), else in a new one.
func (t *Tree[K]) build(sorted []K, layout Layout, storage []byte) {
	n := len(sorted)
	var lo, hi uint64
	if n > 0 {
		lo, hi = keys.OrderedBits(sorted[0]), keys.OrderedBits(sorted[n-1])
	}
	t.reset(layout, n, lo, hi, storage, 0)
	for s, x := range sorted {
		t.setLane(t.pos(s), keys.OrderedBits(x)-t.base)
	}
}

// reset makes t an empty linearization for n keys whose ordered bits
// span lo … hi: it picks the lane width and base, the geometry and its
// slot map, and sizes the storage with every slot a pad holding S_max
// (hi). The caller then writes each key to its slot. The width is K's
// and the base 0, unless t is NarrowLanes and the span fits a narrower
// lane; then the base is lo. An empty tree is at K's width. The storage
// keeps room for at least room slots at the new width.
func (t *Tree[K]) reset(layout Layout, n int, lo, hi uint64, storage []byte, room int) {
	w, base := keys.Width[K](), uint64(0)
	if t.narrow && n > 0 {
		for _, nw := range [...]int{1, 2, 4} {
			if nw < w && hi-lo <= laneMax(nw) {
				w, base = nw, lo
				break
			}
		}
	}
	if room*w > cap(storage) {
		storage = sizeClassed(room * w)
	}
	t.linear = linear{layout: layout, n: n, base: base, w: uint8(w), k: uint8(16/w + 1), lanes: uint8(16 / w),
		narrow: t.narrow, kw: uint8(keys.Width[K]()), signed: keys.Signed[K](), data: storage[:0]}
	if n == 0 {
		return
	}
	g := geometryOf(n, int(t.k), layout)
	t.r, t.m, t.top = g.r, g.m, hi
	t.slots = slotsFor(g)
	t.resize(int(t.slots.bound[n]))
}

// geometryOf returns the geometry a fresh Build of n > 0 keys has in
// layout at k-ary order k. A breadth-first tree is complete: its upper
// r−1 levels are full (k^(r−1)−1 keys) and its last level holds m
// left-packed nodes.
func geometryOf(n, k int, layout Layout) geometry {
	g := geometry{layout: layout, k: k, r: levels(n, k)}
	if layout == BreadthFirst {
		g.m = (n - pow(k, g.r-1) + k - 1) / (k - 1)
	}
	return g
}

// Reserve makes the storage large enough for n keys at the tree's lane
// width, so that inserts growing the tree to n keys allocate no storage,
// geometry changes included, unless they widen the lanes: a fresh
// Build's storage only grows with its key count.
func (t *Tree[K]) Reserve(n int) {
	if n <= t.n {
		return
	}
	if need := t.reserveBytes(n); need > cap(t.data) {
		grown := sizeClassed(need)[:len(t.data)]
		copy(grown, t.data)
		t.data = grown
	}
}

// reserveBytes returns the storage a fresh Build of n > t.n keys takes
// at t's lane width. A breadth-first tree is complete: its keys rounded
// up to whole registers.
func (t *Tree[K]) reserveBytes(n int) int {
	if t.layout == BreadthFirst {
		return (n + int(t.lanes) - 1) / int(t.lanes) * registerBytes
	}
	return int(slotsFor(geometryOf(n, int(t.k), t.layout)).bound[n]) * int(t.w)
}

// registerBytes is the width of one SIMD register: the room a copy
// keeps for an insert (CopyCap).
const registerBytes = 16

// CopyFrom makes t a copy of src that shares no storage with it, in
// storage of capacity c (src.CopyCap): t's old array when that has
// exactly this capacity, else a new one, so a copy never carries the
// slack of a larger array a Reserve or an earlier node left.
func (t *Tree[K]) CopyFrom(src *Tree[K], c int) {
	buf := t.data
	*t = *src
	t.data = sizeclass.Copy(buf, src.data, c, false)
}

// Cap reports the capacity in bytes of t's storage.
func (t *Tree[K]) Cap() int { return cap(t.data) }

// CopyCap reports the capacity in bytes of a copy of t with room for n
// keys: the allocator size class of t's stored bytes plus one register
// (the slots an insert that changes the geometry adds). With room asked
// for (n > t.n), the copy keeps t's capacity while that still holds the
// register, and takes a Reserve's size for n keys once it does not, so
// the Reserve's slot-map lookup runs once per growth, not per copy.
func (t *Tree[K]) CopyCap(n int) int {
	need := len(t.data) + registerBytes
	if n > t.n {
		if cap(t.data) >= need {
			need = cap(t.data)
		} else {
			need = max(need, t.reserveBytes(n))
		}
	}
	return sizeclass.Bytes(need, false)
}

// Reset makes t a fresh linearization of the strictly ascending keys
// sorted, in t's layout; sorted is not retained.
func (t *Tree[K]) Reset(sorted []K) { t.build(sorted, t.layout, nil) }

// SplitInsert inserts x at sorted index pos into the tree, whose
// geometry is full, keeps the first mid keys and makes right a fresh
// linearization of the others, in t's layout, each half at the lane
// width its own keys span. Both halves are built straight from the
// sorted keys: linearizing the overfull node first would only be thrown
// away.
func (t *Tree[K]) SplitInsert(pos int, x K, mid int, right *Tree[K]) {
	ks := slices.Insert(t.AppendKeys(make([]K, 0, t.n+1)), pos, x)
	right.build(ks[mid:], t.layout, nil)
	t.build(ks[:mid], t.layout, nil)
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
	return keys.FromOrderedBits[K](t.top), true
}

// pos maps a sorted position to its storage slot under the tree's layout.
func (t *linear) pos(s int) int { return int(t.slots.slot[s]) }

// At returns the key at the given index of the original sorted order, by
// applying the layout's position transformation.
func (t *Tree[K]) At(s int) K {
	if s < 0 || s >= t.n {
		panic(fmt.Sprintf("kary: index %d out of range [0,%d)", s, t.n)) //simdtree:allowpanic index contract, mirrors built-in slice indexing
	}
	return t.key(t.pos(s))
}

// Keys delinearizes the tree back into its sorted key list.
func (t *Tree[K]) Keys() []K { return t.AppendKeys(make([]K, 0, t.n)) }

// AppendKeys appends the tree's keys in sorted order to dst and returns
// the extended slice.
func (t *Tree[K]) AppendKeys(dst []K) []K {
	for s := 0; s < t.n; s++ {
		dst = append(dst, t.key(t.pos(s)))
	}
	return dst
}

// Linearized returns the stored slot values in storage order, including
// replenishment pads — the layout the SIMD loads see, each lane decoded
// back to its key. Used by inspection tools and tests.
func (t *Tree[K]) Linearized() []K {
	out := make([]K, t.stored)
	for i := range out {
		out[i] = t.key(i)
	}
	return out
}

// Validate checks the structural invariants: a lane width its policy
// allows, with base 0 at K's width; delinearized keys strictly
// ascending, stored a multiple of k−1, maximum consistent.
func (t *Tree[K]) Validate() error {
	if t.w == 0 {
		return fmt.Errorf("kary: tree not constructed with Build")
	}
	kw := keys.Width[K]()
	if w := int(t.w); w > kw || w != kw && !t.narrow || w == kw && t.base != 0 || int(t.lanes) != 16/w || t.k != t.lanes+1 ||
		int(t.kw) != kw || t.signed != keys.Signed[K]() {
		return fmt.Errorf("kary: %d-byte lanes with base %d in a %v tree of %d-byte keys", t.w, t.base, t.Lanes(), kw)
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
	if keys.OrderedBits(ks[len(ks)-1]) != t.top {
		return fmt.Errorf("kary: smax mismatch")
	}
	return nil
}
