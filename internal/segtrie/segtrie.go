// Package segtrie implements the paper's Segment-Trie (§4): a prefix
// B-Tree (trie) over m-bit keys split into 8-bit segments, giving
// r = m/8 levels. Every node holds up to 256 partial keys stored as a
// linearized 17-ary search tree, so one inner-node search costs exactly
// two SIMD comparisons regardless of the key width — this is how the trie
// transfers the 8-bit k-ary search performance to 64-bit keys.
//
// Keys are split most-significant segment first on their order-preserving
// bit pattern (keys.OrderedBits), so trie order equals key order and the
// structure supports ordered iteration besides point lookups. The §4
// fast paths are implemented: a single-key node is compared directly and
// a completely full node indexes its pointer array like a hash table. An
// empty trie has no root, so its search ends before any node.
//
// One Trie type is both of the paper's tries. They differ only in the §4
// level-omission policy, fixed by the constructor: New materializes every
// level, so the height is r = m/8; NewOptimized omits the levels that
// would hold a single partial key and keeps their segments as the prefix
// of the node below (lazy expansion). The policy acts in two places —
// tail, which builds the path below a miss, and Delete's repair — and
// Validate checks its rule; every read walks node prefixes, which the
// plain trie leaves empty.
//
// A Trie is also its own version header for path copying
// (index.Forker), under the same stamp rule as btree.Skeleton: Fork
// copies the header, and a fork's writes copy each node they change
// that an older write stamped, once — along Put's link walk, split and
// Delete's repair, and the child a splice rewrites the prefix of.
package segtrie

import (
	"slices"

	"repro/internal/bitmask"
	"repro/internal/index"
	"repro/internal/invariants"
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
// type V. The zero value is not usable; construct with New or
// NewOptimized.
type Trie[K keys.Key, V any] struct {
	cfg    Config
	root   *node[V] // nil when empty
	size   int
	levels int  // r = Width(K): segments per key
	omit   bool // §4 level omission, set by NewOptimized
	// Path copying (index.Forker), as in btree.Skeleton: gen stamps the
	// nodes the running write creates and is 0 in a trie never forked,
	// safe bounds the retired nodes it may reuse, copied counts its
	// copies and copyAllocs those that allocated storage, and pool is
	// shared by every fork of one trie.
	gen        uint64
	safe       uint64
	copied     int
	copyAllocs int
	pool       *pool[V]
}

// pool is what the writes of one trie retired, as btree's pool: nodes
// with their partial-key stores, and their child and value arrays split
// off, each recycled by size class.
type pool[V any] struct {
	nodes    index.Recycler[*node[V]]
	children index.Arrays[*node[V]]
	vals     index.Arrays[V]
}

// node discriminates one trie level after its prefix: the segments of
// the omitted levels above it, always empty in the plain trie. An inner
// node has one child per partial key; a last-level node has one value
// per partial key. Children and values are kept in partial-key order,
// indexed by the position the 17-ary search returns. The search header
// comes first and the prefix right after it, so the prefix-length check
// of every level reads next to the fields the node search reads.
type node[V any] struct {
	kt       kary.Tree[uint8]
	prefix   []uint8 // never changed in place, so copies share it
	children []*node[V]
	vals     []V
	gen      uint64 // stamp of the write that created the node
}

// New returns an empty Seg-Trie that materializes every level, so its
// height is fixed at Width(K) — the paper's invariant-height property.
func New[K keys.Key, V any](cfg Config) *Trie[K, V] {
	return &Trie[K, V]{cfg: cfg, levels: keys.Width[K]()}
}

// NewDefault returns an empty trie with DefaultConfig.
func NewDefault[K keys.Key, V any]() *Trie[K, V] {
	return New[K, V](DefaultConfig())
}

// NewOptimized returns an empty optimized Seg-Trie (§4, last paragraphs):
// levels that would hold only one partial key are omitted, following the
// expanding-tries idea of Boehm et al. and the lazy expansion of Leis et
// al. A lookup compares a run of omitted levels as plain prefix bytes and
// performs the 17-ary SIMD search only on levels that distinguish keys.
// For consecutive tuple IDs this collapses a 64-bit trie to one or two
// levels (Figure 11).
func NewOptimized[K keys.Key, V any](cfg Config) *Trie[K, V] {
	t := New[K, V](cfg)
	t.omit = true
	return t
}

// NewOptimizedDefault returns an empty optimized trie with DefaultConfig.
func NewOptimizedDefault[K keys.Key, V any]() *Trie[K, V] {
	return NewOptimized[K, V](DefaultConfig())
}

// Len reports the number of stored keys.
func (t *Trie[K, V]) Len() int { return t.size }

// Levels reports the nominal trie height r = m/L (§4: invariant,
// independent of the number of stored keys). The optimized trie's stored
// structure may be much shallower.
func (t *Trie[K, V]) Levels() int { return t.levels }

// Config returns the trie's configuration.
func (t *Trie[K, V]) Config() Config { return t.cfg }

// name is the structure's name in traces and shape reports.
func (t *Trie[K, V]) name() string {
	if t.omit {
		return "opt-segtrie"
	}
	return "segtrie"
}

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

// find locates pk inside a node's partial keys kt, recording into tr and
// adding the node search's §4 cost to c, each when non-nil. On a hit, idx
// is the position of pk's child or value; on a miss, idx is the insertion
// position. It applies the §4 fast paths: a single-key node is compared
// directly and a full node is indexed without any search. Trie nodes are
// never empty.
//
//simdtree:hotpath
func find(kt *kary.Tree[uint8], pk uint8, ev bitmask.Evaluator, tr *trace.Trace, c *obs.Cost) (idx int, ok bool) {
	var discard obs.Cost
	if c == nil {
		c = &discard
	}
	switch kt.Len() {
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

// GetTraced is Get additionally returning the lookup's §4 cost — per
// node visited one node visit plus the fast path's scalar compare or the
// two SIMD compares of its 17-ary search; prefix byte compares are not
// counted — and recording the descent into tr: each node's prefix
// comparison (lazy expansion, §4), the segment byte and node of every
// materialized level, the fast path or SIMD compares resolving it, and
// the branch followed. A nil tr records nothing.
//
//simdtree:hotpath
func (t *Trie[K, V]) GetTraced(key K, tr *trace.Trace) (v V, ok bool, c obs.Cost) {
	if tr != nil {
		tr.SetStructure(t.name())
	}
	n := t.root
	if n == nil {
		if tr != nil {
			tr.FastPath("empty-trie", 0)
		}
		return v, false, c
	}
	u := keys.OrderedBits(key)
	for level := 0; ; level++ {
		for matched, p := range n.prefix {
			if t.segment(u, level) != p {
				if tr != nil {
					tr.PrefixSkip(level-matched, matched, false)
				}
				return v, false, c
			}
			level++
		}
		pk := t.segment(u, level)
		if tr != nil {
			if m := len(n.prefix); m > 0 {
				tr.PrefixSkip(level-m, m, true)
			}
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

// Fork implements index.Forker: a fork of the trie for the write that
// publishes gen, in dst's header when dst is a trie. Nothing of t is
// written, so t may be a published version.
func (t *Trie[K, V]) Fork(dst index.Forker[K, V], gen, safe uint64) index.Forker[K, V] {
	if invariants.Enabled {
		invariants.Assertf(gen > t.gen && safe < gen, "fork for gen %d (safe %d) of a trie at gen %d", gen, safe, t.gen)
	}
	f, _ := dst.(*Trie[K, V])
	if f == nil {
		f = new(Trie[K, V])
	}
	p := t.pool
	if p == nil {
		p = &pool[V]{children: index.NewArrays[*node[V]](), vals: index.NewArrays[V]()}
	}
	p.nodes.Age(gen)
	p.children.Age(gen)
	p.vals.Age(gen)
	*f = *t
	f.gen, f.safe, f.copied, f.copyAllocs, f.pool = gen, safe, 0, 0, p
	return f
}

// Copied reports the number of nodes this fork's writes copied and how
// many of those copies allocated storage.
func (t *Trie[K, V]) Copied() (nodes, allocated int) { return t.copied, t.copyAllocs }

// own returns n ready for the running write to change: n itself when the
// write created it, else its copy (copyOf). The caller links the result
// in n's place. own is small enough to inline, so a trie never forked
// pays one stamp comparison per node.
func (t *Trie[K, V]) own(n *node[V]) *node[V] {
	if n.gen == t.gen {
		return n
	}
	return t.copyOf(n)
}

// copyOf returns a copy of n stamped with the running write's gen and
// retires n. As in btree, the copy's partial keys and child or value
// array are sized to n's plus one element, in retired storage of that
// class when some is free, the partial keys with their node; the prefix
// is shared.
func (t *Trie[K, V]) copyOf(n *node[V]) *node[V] {
	p := t.pool
	kc := n.kt.CopyCap(0)
	c, ks := p.nodes.Reuse(kc, t.safe)
	if !ks {
		c = new(node[V])
	}
	cc, vc := p.children.Class(n.children, 0), p.vals.Class(n.vals, 0)
	var cs, vs bool
	c.children, cs = p.children.Reuse(cc, t.safe)
	c.vals, vs = p.vals.Reuse(vc, t.safe)
	c.kt.CopyFrom(&n.kt, kc)
	c.prefix = n.prefix
	c.children = p.children.Copy(c.children, n.children, cc)
	c.vals = p.vals.Copy(c.vals, n.vals, vc)
	c.gen = t.gen
	t.retire(n)
	t.copied++
	if !(ks && cs && vs) {
		t.copyAllocs++
	}
	return c
}

// retire hands n, which the running write unlinked, to the pool, its
// child or value array split off; a trie never forked has none. n itself
// is left as it is.
func (t *Trie[K, V]) retire(n *node[V]) {
	p := t.pool
	if p == nil {
		return
	}
	p.nodes.Retire(n, n.kt.Cap(), t.gen)
	p.children.Retire(n.children, t.gen)
	p.vals.Retire(n.vals, t.gen)
}

// Put stores val under key, returning true when the key was newly
// inserted and false when an existing value was replaced. A miss hangs
// the rest of the key below the node as one tail; a key diverging inside
// a stored prefix splits the node there (lazy expansion, §4). Every node
// on the walk changes or relinks a copied child, so the walk owns each
// node it enters.
func (t *Trie[K, V]) Put(key K, val V) bool {
	u := keys.OrderedBits(key)
	if t.root == nil {
		t.root = t.tail(u, 0, val)
		t.size = 1
		return true
	}
	link := &t.root
	for level := 0; ; level++ {
		n := t.own(*link)
		*link = n
		for d, p := range n.prefix {
			if t.segment(u, level) != p {
				*link = t.split(n, d, u, level, val)
				t.size++
				return true
			}
			level++
		}
		pk := t.segment(u, level)
		idx, hit := find(&n.kt, pk, t.cfg.Evaluator, nil, nil)
		last := level == t.levels-1
		if hit && last {
			n.vals[idx] = val
			return false
		}
		if hit {
			link = &n.children[idx]
			continue
		}
		n.kt.InsertAt(idx, pk)
		if last {
			n.vals = slices.Insert(n.vals, idx, val)
		} else {
			n.children = slices.Insert(n.children, idx, t.tail(u, level+1, val))
		}
		t.size++
		return true
	}
}

// tail builds the path holding key u from level down to a value node
// for val. It is one half of the level-omission policy: the optimized
// trie builds one node whose prefix holds the segments above the last
// level, the plain trie one single-key node per level.
func (t *Trie[K, V]) tail(u uint64, level int, val V) *node[V] {
	last := t.levels - 1
	n := &node[V]{kt: t.single(t.segment(u, last)), vals: []V{val}, gen: t.gen}
	if t.omit {
		n.prefix = make([]uint8, last-level)
		for i := range n.prefix {
			n.prefix[i] = t.segment(u, level+i)
		}
		return n
	}
	for l := last - 1; l >= level; l-- {
		n = &node[V]{kt: t.single(t.segment(u, l)), children: []*node[V]{n}, gen: t.gen}
	}
	return n
}

// single builds a node search over one partial key.
func (t *Trie[K, V]) single(pk uint8) kary.Tree[uint8] {
	return *kary.BuildUnchecked([]uint8{pk}, t.cfg.Layout)
}

// split handles key u diverging from the owned node n's prefix at prefix
// index d, trie level `level`: a new two-way node takes the prefix above
// d and holds n, which keeps the prefix below d, beside the tail of u.
func (t *Trie[K, V]) split(n *node[V], d int, u uint64, level int, val V) *node[V] {
	if invariants.Enabled {
		invariants.Assertf(n.gen == t.gen, "split at gen %d changes a node stamped %d", t.gen, n.gen)
	}
	old, pk := n.prefix[d], t.segment(u, level)
	up := &node[V]{prefix: slices.Clone(n.prefix[:d]), gen: t.gen}
	n.prefix = slices.Clone(n.prefix[d+1:])
	pks, kids := []uint8{old, pk}, []*node[V]{n, t.tail(u, level+1, val)}
	if pk < old {
		slices.Reverse(pks)
		slices.Reverse(kids)
	}
	up.kt = *kary.BuildUnchecked(pks, t.cfg.Layout)
	up.children = kids
	return up
}

// step is one node of a Delete descent and the position it followed.
type step[V any] struct {
	n   *node[V]
	idx int
}

// Delete removes key, reporting whether it was present. The descent path
// lives in a stack array — a key has at most 8 segments — so a Delete
// that unlinks no node allocates nothing, and a miss copies nothing.
func (t *Trie[K, V]) Delete(key K) bool {
	var path [8]step[V]
	u := keys.OrderedBits(key)
	n := t.root
	for depth, level := 0, 0; n != nil; depth, level = depth+1, level+1 {
		for _, p := range n.prefix {
			if t.segment(u, level) != p {
				return false
			}
			level++
		}
		idx, hit := find(&n.kt, t.segment(u, level), t.cfg.Evaluator, nil, nil)
		if !hit {
			return false
		}
		path[depth] = step[V]{n, idx}
		if level == t.levels-1 {
			t.remove(path[:depth+1])
			return true
		}
		n = n.children[idx]
	}
	return false
}

// remove deletes the value path ends at, then repairs the path. It is
// the other half of the level-omission policy. Both tries unlink emptied
// nodes (§4: "a node that becomes empty due to deleting all partial keys
// will be removed"); the optimized trie then splices an inner node left
// with one key into its child, merging the prefixes — the inverse of
// lazy expansion. The nodes the delete would empty are unlinked as they
// are; the path above them is owned top down, and a spliced child is
// owned too, since its prefix changes.
func (t *Trie[K, V]) remove(path []step[V]) {
	i := len(path) - 1
	for ; i > 0 && path[i].n.kt.Len() == 1; i-- {
		t.retire(path[i].n)
	}
	link := &t.root
	for j := 0; j <= i; j++ {
		n := t.own(*link)
		*link = n
		if j < i {
			link = &n.children[path[j].idx]
		}
	}
	n, idx := *link, path[i].idx
	if invariants.Enabled {
		invariants.Assertf(n.gen == t.gen, "delete at gen %d changes a node stamped %d", t.gen, n.gen)
	}
	n.kt.DeleteAt(idx)
	if i == len(path)-1 {
		n.vals = slices.Delete(n.vals, idx, idx+1)
	} else {
		n.children = slices.Delete(n.children, idx, idx+1)
	}
	t.size--
	switch {
	case n.kt.Len() == 0:
		*link = nil // only the root can empty here
		t.retire(n)
	case t.omit && n.kt.Len() == 1 && len(n.children) == 1:
		child := t.own(n.children[0])
		child.prefix = slices.Concat(n.prefix, []uint8{n.kt.At(0)}, child.prefix)
		*link = child
		t.retire(n)
	}
}
