package segtrie

import (
	"repro/internal/kary"
	"repro/internal/keys"
	"repro/internal/obs"
	"repro/internal/trace"
)

// Optimized is the paper's optimized Seg-Trie (§4, last paragraphs): tree
// levels that would hold only one partial key are omitted, following the
// expanding-tries idea of Boehm et al. and the lazy expansion of Leis et
// al. The omitted segments are stored as a prefix inside the node below
// them, so a lookup compares a whole run of omitted levels with plain
// byte comparisons and performs the 17-ary SIMD search only on levels that
// actually distinguish keys. For the paper's favourite workload —
// consecutive tuple IDs — this collapses a 64-bit trie to one or two
// levels and yields the constant ≈14× speedup of Figure 11.
type Optimized[K keys.Key, V any] struct {
	cfg    Config
	root   *onode[V] // nil when empty
	size   int
	levels int
}

// onode discriminates one trie level after matching its compressed prefix.
// An inner node has ≥ 2 partial keys (otherwise it would be compressed
// away); a last-level node stores values and may hold a single key.
type onode[V any] struct {
	prefix   []uint8 // omitted-level segments preceding this node's level
	kt       kary.Tree[uint8]
	children []*onode[V]
	vals     []V
}

func (n *onode[V]) last() bool { return n.children == nil }

// NewOptimized returns an empty optimized Seg-Trie.
func NewOptimized[K keys.Key, V any](cfg Config) *Optimized[K, V] {
	return &Optimized[K, V]{cfg: cfg, levels: keys.Width[K]()}
}

// NewOptimizedDefault returns an empty optimized trie with DefaultConfig.
func NewOptimizedDefault[K keys.Key, V any]() *Optimized[K, V] {
	return NewOptimized[K, V](DefaultConfig())
}

// Len reports the number of stored keys.
func (t *Optimized[K, V]) Len() int { return t.size }

// Levels reports the nominal trie height r = m/L; the stored structure may
// be much shallower.
func (t *Optimized[K, V]) Levels() int { return t.levels }

// Config returns the trie's configuration.
func (t *Optimized[K, V]) Config() Config { return t.cfg }

//
//simdtree:hotpath
func (t *Optimized[K, V]) segment(u uint64, level int) uint8 {
	return uint8(u >> (8 * uint(t.levels-1-level)))
}

// The Get descent is a zero-allocation hot path; the directive keeps the
// //simdtree:hotpath annotations checked by cmd/simdvet.
//
//simdtree:kernels ^Optimized\.(GetTraced|segment)$

// Get returns the value stored under key, if present.
func (t *Optimized[K, V]) Get(key K) (V, bool) {
	v, ok, _ := t.GetTraced(key, nil)
	return v, ok
}

// GetTraced is Get additionally returning the lookup's §4 cost — the node
// searches of the materialized levels; the compressed-prefix byte
// compares are not counted — and recording the descent into tr: the
// prefix comparisons of each node (lazy expansion, §4), the segment byte
// and node of every materialized level, the fast path or SIMD compares
// resolving it, and the branch taken. A nil tr records nothing.
//
//simdtree:hotpath
func (t *Optimized[K, V]) GetTraced(key K, tr *trace.Trace) (v V, ok bool, c obs.Cost) {
	if tr != nil {
		tr.SetStructure("opt-segtrie")
	}
	if t.root == nil {
		if tr != nil {
			tr.FastPath("empty-trie", 0)
		}
		return v, false, c
	}
	u := keys.OrderedBits(key)
	n := t.root
	level := 0
	for {
		matched := 0
		for _, p := range n.prefix {
			if t.segment(u, level) != p {
				if tr != nil {
					tr.PrefixSkip(level-matched, matched, false)
				}
				return v, false, c
			}
			matched++
			level++
		}
		pk := t.segment(u, level)
		if tr != nil {
			if matched > 0 {
				tr.PrefixSkip(level-matched, matched, true)
			}
			tr.Segment(level, pk)
			tr.Node(level, n.kt.Len(), t.cfg.Layout.String(), "trie")
		}
		idx, hit := find(&n.kt, pk, t.cfg.Evaluator, tr, &c)
		if !hit {
			return v, false, c
		}
		if n.last() {
			return n.vals[idx], true, c
		}
		if tr != nil {
			tr.Branch(idx)
		}
		n = n.children[idx]
		level++
	}
}

// Contains reports whether key is present.
func (t *Optimized[K, V]) Contains(key K) bool {
	_, ok := t.Get(key)
	return ok
}

// tail builds the single compressed node holding the remainder of key u
// from the given level down: all levels but the last become the prefix.
func (t *Optimized[K, V]) tail(u uint64, level int, val V) *onode[V] {
	prefix := make([]uint8, 0, t.levels-1-level)
	for l := level; l < t.levels-1; l++ {
		prefix = append(prefix, t.segment(u, l))
	}
	kt := *kary.BuildUnchecked([]uint8{t.segment(u, t.levels-1)}, t.cfg.Layout)
	return &onode[V]{prefix: prefix, kt: kt, vals: []V{val}}
}

// Put stores val under key, returning true when the key was newly
// inserted. Lazy expansion: a diverging prefix splits the node by
// inserting a new two-way parent at the divergence level.
func (t *Optimized[K, V]) Put(key K, val V) bool {
	u := keys.OrderedBits(key)
	if t.root == nil {
		t.root = t.tail(u, 0, val)
		t.size = 1
		return true
	}
	n := t.root
	level := 0
	var parent *onode[V]
	parentIdx := 0
	for {
		for d, p := range n.prefix {
			pk := t.segment(u, level)
			if pk == p {
				level++
				continue
			}
			// Divergence inside the compressed prefix: split n at depth d.
			oldPk, newPk := p, pk
			rest := append([]uint8(nil), n.prefix[d+1:]...)
			head := append([]uint8(nil), n.prefix[:d]...)
			n.prefix = rest
			split := &onode[V]{prefix: head}
			newChild := t.tail(u, level+1, val)
			if oldPk < newPk {
				split.kt = *kary.BuildUnchecked([]uint8{oldPk, newPk}, t.cfg.Layout)
				split.children = []*onode[V]{n, newChild}
			} else {
				split.kt = *kary.BuildUnchecked([]uint8{newPk, oldPk}, t.cfg.Layout)
				split.children = []*onode[V]{newChild, n}
			}
			if parent == nil {
				t.root = split
			} else {
				parent.children[parentIdx] = split
			}
			t.size++
			return true
		}
		pk := t.segment(u, level)
		idx, hit := find(&n.kt, pk, t.cfg.Evaluator, nil, nil)
		if hit {
			if n.last() {
				n.vals[idx] = val
				return false
			}
			parent, parentIdx = n, idx
			n = n.children[idx]
			level++
			continue
		}
		n.kt.Insert(pk)
		if n.last() {
			n.vals = append(n.vals, val)
			copy(n.vals[idx+1:], n.vals[idx:])
			n.vals[idx] = val
		} else {
			child := t.tail(u, level+1, val)
			n.children = append(n.children, nil)
			copy(n.children[idx+1:], n.children[idx:])
			n.children[idx] = child
		}
		t.size++
		return true
	}
}

// Delete removes key, reporting whether it was present. An emptied
// last-level node is unlinked, and an inner node left with a single child
// is compressed into that child (the inverse of lazy expansion).
func (t *Optimized[K, V]) Delete(key K) bool {
	if t.root == nil {
		return false
	}
	u := keys.OrderedBits(key)
	var path []pathStep[V]
	n := t.root
	level := 0
	for {
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
		if n.last() {
			n.kt.Delete(t.segment(u, level))
			n.vals = append(n.vals[:idx], n.vals[idx+1:]...)
			t.size--
			if n.kt.Len() > 0 {
				return true
			}
			t.unlink(path)
			return true
		}
		path = append(path, pathStep[V]{n, idx})
		n = n.children[idx]
		level++
	}
}

// pathStep records one descent step for bottom-up repairs.
type pathStep[V any] struct {
	n   *onode[V]
	idx int
}

// unlink removes the emptied last-level node from its parent and
// re-compresses the parent if it drops to a single child.
func (t *Optimized[K, V]) unlink(path []pathStep[V]) {
	if len(path) == 0 {
		t.root = nil
		return
	}
	p := path[len(path)-1]
	pk := p.n.kt.At(p.idx)
	p.n.kt.Delete(pk)
	p.n.children = append(p.n.children[:p.idx], p.n.children[p.idx+1:]...)
	if p.n.kt.Len() > 1 {
		return
	}
	// Inner node with a single child: merge prefixes and splice the child
	// into the grandparent (or the root slot).
	child := p.n.children[0]
	merged := make([]uint8, 0, len(p.n.prefix)+1+len(child.prefix))
	merged = append(merged, p.n.prefix...)
	merged = append(merged, p.n.kt.At(0))
	merged = append(merged, child.prefix...)
	child.prefix = merged
	if len(path) == 1 {
		t.root = child
		return
	}
	g := path[len(path)-2]
	g.n.children[g.idx] = child
}
