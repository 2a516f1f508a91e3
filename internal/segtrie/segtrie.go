// Package segtrie implements the paper's Segment-Trie (§4): a prefix
// B-Tree (trie) over m-bit keys split into 8-bit segments, giving
// r = m/8 levels. Every node holds up to 256 partial keys stored as a
// linearized 17-ary search tree, so one inner-node search costs exactly
// two SIMD comparisons regardless of the key width — this is how the trie
// transfers the 8-bit k-ary search performance to 64-bit keys.
//
// Keys are split most-significant segment first on their order-preserving
// bit pattern (keys.OrderedBits), so trie order equals key order and the
// structure supports ordered iteration besides point lookups. The three
// §4 fast paths are implemented: an empty node terminates the search, a
// single-key node is compared directly, and a completely full node indexes
// its pointer array like a hash table.
//
// The optimized Seg-Trie (level omission / lazy expansion with stored
// prefixes) lives in optimized.go.
package segtrie

import (
	"fmt"

	"repro/internal/bitmask"
	"repro/internal/kary"
	"repro/internal/keys"
	"repro/internal/obs"
	"repro/internal/trace"
)

// Config parameterizes a Seg-Trie.
type Config struct {
	// Layout selects the per-node linearization of the 17-ary search
	// trees.
	Layout kary.Layout
	// Evaluator selects the bitmask evaluation algorithm.
	Evaluator bitmask.Evaluator
}

// DefaultConfig uses the paper's preferred settings: breadth-first node
// layout and popcount evaluation.
func DefaultConfig() Config {
	return Config{Layout: kary.BreadthFirst, Evaluator: bitmask.Popcount}
}

// Trie is a Seg-Trie mapping distinct keys of integer type K to values of
// type V. The number of levels is fixed at Width(K) — the paper's
// invariant-height property. The zero value is not usable; construct with
// New.
type Trie[K keys.Key, V any] struct {
	cfg    Config
	root   *node[V]
	size   int
	levels int
}

// node holds up to 256 partial keys. An inner node has one child per
// partial key; a last-level node has one value per partial key. Children
// and values are kept in partial-key order, indexed by the position the
// 17-ary search returns.
type node[V any] struct {
	kt       kary.Tree[uint8]
	children []*node[V]
	vals     []V
}

// New returns an empty trie.
func New[K keys.Key, V any](cfg Config) *Trie[K, V] {
	return &Trie[K, V]{
		cfg:    cfg,
		root:   &node[V]{kt: *kary.BuildUnchecked[uint8](nil, cfg.Layout)},
		levels: keys.Width[K](),
	}
}

// NewDefault returns an empty trie with DefaultConfig.
func NewDefault[K keys.Key, V any]() *Trie[K, V] {
	return New[K, V](DefaultConfig())
}

// Len reports the number of stored keys.
func (t *Trie[K, V]) Len() int { return t.size }

// Levels reports the fixed trie height r = m/L (§4: invariant, independent
// of the number of stored keys).
func (t *Trie[K, V]) Levels() int { return t.levels }

// Config returns the trie's configuration.
func (t *Trie[K, V]) Config() Config { return t.cfg }

// The Get descent is a zero-allocation hot path; the directive keeps the
// //simdtree:hotpath annotations checked by cmd/simdvet.
//
//simdtree:kernels ^(Trie\.(GetTraced|segment)|find)$

// segment extracts the 8-bit partial key of level from the
// order-preserving bit pattern u.
//
//simdtree:hotpath
func (t *Trie[K, V]) segment(u uint64, level int) uint8 {
	return uint8(u >> (8 * uint(t.levels-1-level)))
}

// find locates pk inside a node's partial keys kt — of either trie
// variant — recording into tr and adding the node search's §4 cost to c,
// each when non-nil. On a hit, idx is the position of pk's child or
// value; on a miss, idx is the insertion position. It applies the §4
// fast paths: a single-key node is compared directly and a full node is
// indexed without any search.
//
//simdtree:hotpath
func find(kt *kary.Tree[uint8], pk uint8, ev bitmask.Evaluator, tr *trace.Trace, c *obs.Cost) (idx int, ok bool) {
	var discard obs.Cost
	if c == nil {
		c = &discard
	}
	switch kt.Len() {
	case 0:
		c.NodeVisits++
		if tr != nil {
			tr.FastPath("empty-node", 0)
		}
		return 0, false
	case 1:
		// A single-key node holds exactly its maximum.
		c.NodeVisits++
		c.ScalarComparisons++
		at, _ := kt.Max()
		switch {
		case at == pk:
			idx, ok = 0, true
		case at > pk:
			idx, ok = 0, false
		default:
			idx, ok = 1, false
		}
		if tr != nil {
			tr.Add(trace.Step{Kind: trace.KindFastPath, Depth: tr.Depth(),
				Note: "single-key", Position: idx, Scalar: 1})
		}
		return idx, ok
	case 256:
		// Full node: direct index, zero comparisons of any kind (§4).
		c.NodeVisits++
		if tr != nil {
			tr.FastPath("full-node", int(pk))
		}
		return int(pk), true
	}
	var reg kary.Register // each level searches its own partial key
	pos, found := kt.LookupPT(pk, &reg, ev, tr, c)
	if found {
		return pos - 1, true
	}
	return pos, false
}

// Get returns the value stored under key, if present. A missing partial
// key terminates the search above leaf level — the trie's comparison-
// saving advantage over tree structures (§4).
func (t *Trie[K, V]) Get(key K) (V, bool) {
	v, ok, _ := t.GetTraced(key, nil)
	return v, ok
}

// GetTraced is Get additionally returning the lookup's §4 cost — per trie
// level one node visit plus the fast path's scalar compare or the two
// SIMD compares of its 17-ary search — and recording the descent into
// tr: per level the extracted segment byte, the node entered, the fast
// path or SIMD compares resolving it, and the branch followed. A nil tr
// records nothing.
//
//simdtree:hotpath
func (t *Trie[K, V]) GetTraced(key K, tr *trace.Trace) (v V, ok bool, c obs.Cost) {
	if tr != nil {
		tr.SetStructure("segtrie")
	}
	u := keys.OrderedBits(key)
	n := t.root
	for level := 0; ; level++ {
		pk := t.segment(u, level)
		if tr != nil {
			tr.Segment(level, pk)
			tr.Node(level, n.kt.Len(), t.cfg.Layout.String(), "trie")
		}
		idx, hit := find(&n.kt, pk, t.cfg.Evaluator, tr, &c)
		if !hit {
			return v, false, c
		}
		if level == t.levels-1 {
			return n.vals[idx], true, c
		}
		if tr != nil {
			tr.Branch(idx)
		}
		n = n.children[idx]
	}
}

// Contains reports whether key is present.
func (t *Trie[K, V]) Contains(key K) bool {
	_, ok := t.Get(key)
	return ok
}

// Put stores val under key, returning true when the key was newly inserted
// and false when an existing value was replaced.
func (t *Trie[K, V]) Put(key K, val V) bool {
	u := keys.OrderedBits(key)
	n := t.root
	for level := 0; ; level++ {
		pk := t.segment(u, level)
		idx, hit := find(&n.kt, pk, t.cfg.Evaluator, nil, nil)
		last := level == t.levels-1
		if hit {
			if last {
				n.vals[idx] = val
				return false
			}
			n = n.children[idx]
			continue
		}
		n.kt.Insert(pk)
		if last {
			n.vals = append(n.vals, val)
			copy(n.vals[idx+1:], n.vals[idx:])
			n.vals[idx] = val
			t.size++
			return true
		}
		child := &node[V]{kt: *kary.BuildUnchecked[uint8](nil, t.cfg.Layout)}
		n.children = append(n.children, nil)
		copy(n.children[idx+1:], n.children[idx:])
		n.children[idx] = child
		n = child
	}
}

// Delete removes key, reporting whether it was present. Nodes emptied by
// the removal are unlinked bottom-up (§4: "a node that becomes empty due
// to deleting all partial keys will be removed").
func (t *Trie[K, V]) Delete(key K) bool {
	u := keys.OrderedBits(key)
	type step struct {
		n   *node[V]
		pk  uint8
		idx int
	}
	path := make([]step, 0, t.levels)
	n := t.root
	for level := 0; ; level++ {
		pk := t.segment(u, level)
		idx, hit := find(&n.kt, pk, t.cfg.Evaluator, nil, nil)
		if !hit {
			return false
		}
		path = append(path, step{n, pk, idx})
		if level == t.levels-1 {
			break
		}
		n = n.children[idx]
	}
	// Remove the leaf entry, then unlink empty nodes upward.
	leaf := path[len(path)-1]
	leaf.n.kt.Delete(leaf.pk)
	leaf.n.vals = append(leaf.n.vals[:leaf.idx], leaf.n.vals[leaf.idx+1:]...)
	for i := len(path) - 2; i >= 0 && path[i+1].n.kt.Len() == 0; i-- {
		p := path[i]
		p.n.kt.Delete(p.pk)
		p.n.children = append(p.n.children[:p.idx], p.n.children[p.idx+1:]...)
	}
	t.size--
	return true
}

// Min returns the smallest key and its value; ok is false when empty.
func (t *Trie[K, V]) Min() (k K, v V, ok bool) {
	if t.size == 0 {
		return k, v, false
	}
	var u uint64
	n := t.root
	for level := 0; ; level++ {
		u = u<<8 | uint64(n.kt.At(0))
		if level == t.levels-1 {
			return keys.FromOrderedBits[K](u), n.vals[0], true
		}
		n = n.children[0]
	}
}

// Max returns the largest key and its value; ok is false when empty.
func (t *Trie[K, V]) Max() (k K, v V, ok bool) {
	if t.size == 0 {
		return k, v, false
	}
	var u uint64
	n := t.root
	for level := 0; ; level++ {
		i := n.kt.Len() - 1
		u = u<<8 | uint64(n.kt.At(i))
		if level == t.levels-1 {
			return keys.FromOrderedBits[K](u), n.vals[i], true
		}
		n = n.children[i]
	}
}

// Ascend calls fn for every item in ascending key order until fn returns
// false.
func (t *Trie[K, V]) Ascend(fn func(K, V) bool) {
	t.walk(t.root, 0, 0, func(u uint64, v V) bool {
		return fn(keys.FromOrderedBits[K](u), v)
	})
}

func (t *Trie[K, V]) walk(n *node[V], level int, prefix uint64, fn func(uint64, V) bool) bool {
	for i, pk := range n.kt.Keys() {
		u := prefix<<8 | uint64(pk)
		if level == t.levels-1 {
			if !fn(u, n.vals[i]) {
				return false
			}
			continue
		}
		if !t.walk(n.children[i], level+1, u, fn) {
			return false
		}
	}
	return true
}

// Scan calls fn for every item with lo ≤ key ≤ hi in ascending key order
// until fn returns false, pruning subtrees outside the range.
func (t *Trie[K, V]) Scan(lo, hi K, fn func(K, V) bool) {
	if lo > hi || t.size == 0 {
		return
	}
	t.scan(t.root, 0, 0, keys.OrderedBits(lo), keys.OrderedBits(hi), fn)
}

func (t *Trie[K, V]) scan(n *node[V], level int, prefix, lo, hi uint64, fn func(K, V) bool) bool {
	rem := uint(8 * (t.levels - 1 - level))
	for i, pk := range n.kt.Keys() {
		u := prefix<<8 | uint64(pk)
		// The subtree below u covers [u<<rem, (u<<rem)|maxFill].
		min := u << rem
		max := min | (uint64(1)<<rem - 1)
		if max < lo {
			continue
		}
		if min > hi {
			return true
		}
		if level == t.levels-1 {
			if !fn(keys.FromOrderedBits[K](u), n.vals[i]) {
				return false
			}
			continue
		}
		if !t.scan(n.children[i], level+1, u, lo, hi, fn) {
			return false
		}
	}
	return true
}

// Validate checks the structural invariants: per-node kary invariants,
// children/values parallel to the partial keys, and a size counter that
// matches the stored keys.
func (t *Trie[K, V]) Validate() error {
	count := 0
	var walk func(n *node[V], level int) error
	walk = func(n *node[V], level int) error {
		if err := n.kt.Validate(); err != nil {
			return fmt.Errorf("segtrie: level %d: %w", level, err)
		}
		if n != t.root && n.kt.Len() == 0 {
			return fmt.Errorf("segtrie: empty non-root node at level %d", level)
		}
		if level == t.levels-1 {
			if len(n.vals) != n.kt.Len() {
				return fmt.Errorf("segtrie: level %d: %d keys but %d values", level, n.kt.Len(), len(n.vals))
			}
			if n.children != nil {
				return fmt.Errorf("segtrie: last-level node with children")
			}
			count += n.kt.Len()
			return nil
		}
		if len(n.children) != n.kt.Len() {
			return fmt.Errorf("segtrie: level %d: %d keys but %d children", level, n.kt.Len(), len(n.children))
		}
		if n.vals != nil {
			return fmt.Errorf("segtrie: inner node with values at level %d", level)
		}
		for _, c := range n.children {
			if err := walk(c, level+1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(t.root, 0); err != nil {
		return err
	}
	if count != t.size {
		return fmt.Errorf("segtrie: size %d but %d keys present", t.size, count)
	}
	return nil
}
