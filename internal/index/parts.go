package index

import (
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
	// route maps a key to its part; nil when a single part serves all
	// keys (the Snapshot of a Versioned index).
	route func(K) int
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
	first, last := 0, len(p.trees)-1
	if p.route != nil {
		first, last = p.route(lo), p.route(hi)
	}
	p.walk(first, last, fn, func(t Index[K, V], f func(K, V) bool) { t.Scan(lo, hi, f) })
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

// GetBatch looks up many keys at once, results in input order. Probes
// are bucketed per part for one level-wise batch descent each, so every
// involved part (for Sharded: every involved shard's published version)
// is pinned exactly once.
func (p *parts[K, V]) GetBatch(ks []K) ([]V, []bool) {
	if p.route == nil {
		return p.trees[0].GetBatch(ks)
	}
	n := len(ks)
	vals := make([]V, n)
	found := make([]bool, n)
	if n == 0 {
		return vals, found
	}
	buckets := make([][]int32, len(p.trees))
	for i, k := range ks {
		t := p.route(k)
		buckets[t] = append(buckets[t], int32(i))
	}
	sub := make([]K, 0, n)
	for t, idxs := range buckets {
		if len(idxs) == 0 {
			continue
		}
		sub = sub[:0]
		for _, i := range idxs {
			sub = append(sub, ks[i])
		}
		sv, sf := p.trees[t].GetBatch(sub)
		for j, i := range idxs {
			vals[i] = sv[j]
			found[i] = sf[j]
		}
	}
	return vals, found
}

// ContainsBatch reports presence for many keys at once, in input order.
func (p *parts[K, V]) ContainsBatch(ks []K) []bool {
	_, found := p.GetBatch(ks)
	return found
}

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
	if p.route == nil {
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
