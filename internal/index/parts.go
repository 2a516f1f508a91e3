package index

import (
	"slices"
	"sync"

	"repro/internal/keys"
	"repro/internal/shape"
)

// parts is the read side Sharded and Snapshot share: an index split into
// parts that hold disjoint, ascending key ranges, kept in key order, so
// whole-index reads visit the parts one after another and stay globally
// ordered. For Sharded the parts are the shards' Versioned publishers —
// each part read pins that shard's published version by itself, so a
// read pins only the shards it touches. For Snapshot they are trees
// pinned once at acquisition.
type parts[K keys.Key, V any] struct {
	trees []Index[K, V]
	// Routing (partOf): the top (up to) 32 bits of OrderedBits, scaled by
	// the part count. left/right pre-resolve the key-width-dependent
	// shift; a single part takes every key.
	right uint
	left  uint
	// sharded marks key-range shards; false for the one tree of a
	// Versioned index's Snapshot.
	sharded bool
	// live holds Sharded's publishers (trees[i] == live[i]), so a batch
	// can pin each touched shard once; nil for a Snapshot's pinned trees.
	live []*Versioned[K, V]
}

// newParts composes trees: key-range shards in key order when sharded,
// else the one tree of a Versioned index's Snapshot. The routing shift
// follows K's width, so partOf stays inside trees for every key.
func newParts[K keys.Key, V any](trees []Index[K, V], sharded bool) parts[K, V] {
	p := parts[K, V]{trees: trees, sharded: sharded}
	if bits := uint(8 * keys.Width[K]()); bits >= 32 {
		p.right = bits - 32
	} else {
		p.left = 32 - bits
	}
	return p
}

// Len reports the number of items across all parts. Over live shards
// it sums per-shard pinned versions, exact only when no writer runs
// concurrently; over a Snapshot's frozen trees it is exact.
func (p *parts[K, V]) Len() int {
	n := 0
	for _, t := range p.trees {
		n += t.Len()
	}
	return n
}

// Min returns the smallest key and its value; ok is false when empty.
// Parts hold ascending key ranges, so the first non-empty part wins.
func (p *parts[K, V]) Min() (k K, v V, ok bool) {
	for _, t := range p.trees {
		if k, v, ok = t.Min(); ok {
			return k, v, true
		}
	}
	return k, v, false
}

// Max returns the largest key and its value; ok is false when empty.
func (p *parts[K, V]) Max() (k K, v V, ok bool) {
	for i := len(p.trees) - 1; i >= 0; i-- {
		if k, v, ok = p.trees[i].Max(); ok {
			return k, v, true
		}
	}
	return k, v, false
}

// Ascend calls fn for every item in ascending key order until fn returns
// false. No lock is held while fn runs: it may take as long as it likes,
// and may even mutate the live index (mutations land in later versions,
// invisible to this walk).
func (p *parts[K, V]) Ascend(fn func(K, V) bool) {
	p.walk(0, len(p.trees)-1, fn, Index[K, V].Ascend)
}

// Scan calls fn for every item with lo ≤ key ≤ hi in ascending key order
// until fn returns false, visiting only the parts whose key range
// intersects [lo, hi]. The caveats of Ascend apply (none).
func (p *parts[K, V]) Scan(lo, hi K, fn func(K, V) bool) {
	if lo > hi {
		return
	}
	p.walk(p.partOf(lo), p.partOf(hi), fn, func(t Index[K, V], f func(K, V) bool) { t.Scan(lo, hi, f) })
}

// walk runs visit over parts first..last in key order, ending the whole
// walk as soon as fn returns false.
func (p *parts[K, V]) walk(first, last int, fn func(K, V) bool, visit func(Index[K, V], func(K, V) bool)) {
	more := true
	keep := func(k K, v V) bool {
		more = fn(k, v)
		return more
	}
	for i := first; i <= last && more; i++ {
		visit(p.trees[i], keep)
	}
}

// The batch routing is a zero-allocation hot path; the directive keeps
// its //simdtree:hotpath annotation checked by cmd/simdvet.
//
//simdtree:kernels ^parts\.(partOf|routeBatch)$

// partOf routes a key to its part: the top 32 bits of the
// order-preserving key pattern scaled into [0, len(trees)). Monotone in
// key order, so part ranges partition the key space into ordered slabs.
//
//simdtree:hotpath
func (p *parts[K, V]) partOf(key K) int {
	t := keys.OrderedBits(key) >> p.right << p.left
	return int(t * uint64(len(p.trees)) >> 32)
}

// routing is the pooled scratch of one batch's routing: each probe's
// part, the probe indexes grouped by part, and where each part's group
// ends.
type routing struct {
	part  []int32
	order []int32
	ends  []int32
}

var routingPool = sync.Pool{New: func() any { return new(routing) }}

// GetBatchInto looks up ks into vals and found, in input order. Every
// touched part is pinned once (for Sharded: the shard's published
// version) and answers all of its keys from that one version, so two
// keys of one shard never straddle a concurrent write. Each part answers
// its probes with Gets in place: a shard's share of a served batch is a
// few probes into an L2-resident tree, where the interleaved descent has
// no node loads to overlap and its per-node callback is pure cost
// (EXPERIMENTS.md, "Batched lookups").
func (p *parts[K, V]) GetBatchInto(ks []K, vals []V, found []bool) {
	if !p.sharded {
		p.trees[0].GetBatchInto(ks, vals, found)
		return
	}
	n := len(ks)
	vals, found = vals[:n], found[:n]
	r := routingPool.Get().(*routing)
	r.part = slices.Grow(r.part[:0], n)[:n]
	r.order = slices.Grow(r.order[:0], n)[:n]
	r.ends = slices.Grow(r.ends[:0], len(p.trees))[:len(p.trees)]
	p.routeBatch(ks, r.part, r.order, r.ends)
	lo := int32(0)
	for part, hi := range r.ends {
		if hi == lo {
			continue
		}
		tree, slot := p.trees[part], (*epochSlot)(nil)
		if p.live != nil {
			var v *version[K, V]
			v, slot = p.live[part].pin(readerSlotHint())
			tree = v.tree
		}
		for _, i := range r.order[lo:hi] {
			vals[i], found[i] = tree.Get(ks[i])
		}
		if slot != nil {
			slot.epoch.Store(0)
		}
		lo = hi
	}
	routingPool.Put(r)
}

// routeBatch counting-sorts the probe indexes by part: order lists them
// grouped by part in key-range order, in input order within a part, and
// part t's group is order[ends[t-1]:ends[t]] (from 0 for t = 0).
//
//simdtree:hotpath
func (p *parts[K, V]) routeBatch(ks []K, part, order, ends []int32) {
	part = part[:len(ks)]
	clear(ends)
	for i, k := range ks {
		t := int32(p.partOf(k))
		part[i] = t
		ends[t]++
	}
	sum := int32(0)
	for t, c := range ends {
		ends[t] = sum // the group's start, advanced to its end below
		sum += c
	}
	for i, t := range part {
		order[ends[t]] = int32(i)
		ends[t]++
	}
}

// GetBatch looks up many keys at once, values and found mask in input
// order.
func (p *parts[K, V]) GetBatch(ks []K) ([]V, []bool) { return GetBatch[K, V](p, ks) }

// ContainsBatch reports presence for many keys at once, in input order.
func (p *parts[K, V]) ContainsBatch(ks []K) []bool { return ContainsBatch[K, V](p, ks) }

// IndexStats projects the merged report: counts and bytes sum, height is
// the deepest part.
func (p *parts[K, V]) IndexStats() Stats { return StatsOf(p.Shape()) }

// Shape merges the per-part structural reports: counts, bytes, registers
// and histograms sum, levels take the deepest part, and the structure
// name is the first part's prefixed with "sharded/". A single unrouted
// part reports its own shape unchanged. Over live shards each walk runs
// against its shard's own pinned version (a per-shard-consistent
// composite); over a Snapshot the composite is exactly consistent.
func (p *parts[K, V]) Shape() shape.Report {
	if !p.sharded {
		return p.trees[0].Shape()
	}
	var rep shape.Report
	for i, t := range p.trees {
		r := t.Shape()
		if i == 0 {
			rep = shape.New("sharded/" + r.Structure)
		}
		rep.Merge(r)
	}
	rep.Shards = len(p.trees)
	return rep.Finalize()
}
