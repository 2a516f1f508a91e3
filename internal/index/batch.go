package index

import (
	"math/bits"
	"slices"
	"sync"

	"repro/internal/keys"
)

// This file is the batched-lookup core shared by all four tree
// structures and every wrapper: the one allocating GetBatch/ContainsBatch
// form, the one serial loop, and the level-wise batch descent after the
// level-wise B+-Tree traversal of Tzschoppe et al. (arXiv:2604.21117):
// probes are sorted, probes with equal keys collapse into one group, and
// the groups descend the tree one level at a time.
//
// Two effects pay for the sort. First, each inner node's search (the
// linearized k-ary SIMD search in the Seg-Tree and optimized Seg-Trie,
// binary search in the baseline) runs once per probe group instead of
// once per probe. Second, the descent is breadth-synchronous: at every
// level the groups touch nodes in ascending key order, so adjacent groups
// hit the same node while it is cache-hot, and the independent node loads
// of different groups overlap in the memory system instead of each lookup
// serializing its own cache-miss chain. Both effects need enough probes
// and enough cache misses to outweigh the sort; as in the B^S-tree
// (arXiv:2505.01180), a tree batches only where that holds, and runs
// plain Gets otherwise (Batch).

// levelWiseMin is the fewest probes into one tree that take the
// level-wise descent, and levelWiseKeyBytes the smallest tree, in key
// bytes, that takes it; smaller batches and trees run serial Gets. Both
// come from sweeps of batch size and tree size on a 2-vCPU Xeon with 2 MB
// of L2 per core (EXPERIMENTS.md, "Batched lookups"). On the 5 MB class
// (2.6 MB of 64-bit keys) the descents mostly hit cache, little is left
// to overlap, and the sort and the callback-driven schedule cost up to
// 25 % against serial Gets at every batch size; from 5.2 MB of keys up
// the level-wise descent wins at every batch size from 8 probes.
const (
	levelWiseMin      = 8
	levelWiseKeyBytes = 4 << 20
)

// window is the number of probe groups that descend together. Their node
// cursors live in a stack array, and 64 independent descents are more
// than the memory system can overlap.
const window = 64

// Getter is the point-lookup face the serial batch loop drives.
type Getter[K keys.Key, V any] interface {
	Get(K) (V, bool)
}

// LevelWiser is a tree with a level-wise batch descent.
type LevelWiser[K keys.Key, V any] interface {
	Getter[K, V]
	Len() int
	// GetBatchLevelWise answers ks into vals and found like GetBatchInto,
	// always with the level-wise descent (LevelWise).
	GetBatchLevelWise(ks []K, vals []V, found []bool)
}

// GetBatch is the allocating form of GetBatchInto shared by every
// implementation: it allocates the values and the found mask (two
// allocations) and fills them in input order.
func GetBatch[K keys.Key, V any](b interface{ GetBatchInto([]K, []V, []bool) }, ks []K) ([]V, []bool) {
	vals := make([]V, len(ks))
	found := make([]bool, len(ks))
	b.GetBatchInto(ks, vals, found)
	return vals, found
}

// ContainsBatch reports presence for many keys at once, in input order,
// through b's GetBatchInto.
func ContainsBatch[K keys.Key, V any](b interface{ GetBatchInto([]K, []V, []bool) }, ks []K) []bool {
	_, found := GetBatch[K, V](b, ks)
	return found
}

// The serial loop and the batch-path choice run on every batch; the
// directive keeps their //simdtree:hotpath annotations checked by
// cmd/simdvet.
//
//simdtree:kernels ^(GetEach|Batch|levelWise)$

// levelWise reports whether n probes into t take the level-wise descent:
// at least levelWiseMin probes into a tree of at least levelWiseKeyBytes
// key bytes. It is the one batch-path rule, for a bare tree (Batch) and
// for each shard of a sharded batch (parts.GetBatchInto).
//
//simdtree:hotpath
func levelWise[K keys.Key](t interface{ Len() int }, n int) bool {
	return n >= levelWiseMin && t.Len()*keys.Width[K]() >= levelWiseKeyBytes
}

// Batch is the GetBatchInto of a tree with a level-wise descent: t's
// level-wise descent where levelWise holds, serial Gets otherwise.
//
//simdtree:hotpath
func Batch[K keys.Key, V any](t LevelWiser[K, V], ks []K, vals []V, found []bool) {
	if !levelWise[K](t, len(ks)) {
		GetEach(t, ks, vals, found)
		return
	}
	t.GetBatchLevelWise(ks, vals, found)
}

// GetEach answers ks with one Get each: vals[i], found[i] = g.Get(ks[i])
// for the first len(ks) entries: the batch path of every small batch or
// tree.
//
//simdtree:hotpath
func GetEach[K keys.Key, V any](g Getter[K, V], ks []K, vals []V, found []bool) {
	vals, found = vals[:len(ks)], found[:len(ks)]
	for i, k := range ks {
		vals[i], found[i] = g.Get(k)
	}
}

// LevelWise is the level-synchronized, probe-sorted batch descent of one
// tree, writing vals[i] and found[i] (the zero value and false for a
// miss) for the first len(ks) entries. It is generic over the tree's node
// handle N so that each structure keeps its own node layout (the engine
// never sees keys inside nodes): segtree and btree pass node pointers,
// the tries pass a (node, level) pair.
//
// The zero value of N terminates a probe: atLeaf selects between step
// (one branch-level descent; returning zero N reports a miss above leaf
// level, the Seg-Trie's comparison-saving early exit) and resolve (the
// leaf lookup). Both callbacks receive the probe index i of the group's
// representative and must depend only on ks[i] and the node — probes with
// equal keys share one descent and one result.
func LevelWise[K keys.Key, V any, N comparable](
	ks []K, vals []V, found []bool,
	root N,
	atLeaf func(n N) bool,
	step func(n N, i int) N,
	resolve func(n N, i int) (V, bool),
) {
	var zero N
	n := len(ks)
	vals, found = vals[:n], found[:n]
	if n == 0 || root == zero {
		clear(vals)
		clear(found)
		return
	}
	sc := levelScratchPool.Get().(*levelScratch)
	order, groups := sortProbes(sc, ks)

	// One cursor per group of the current window; every pass advances
	// each live cursor exactly one level, so the window crosses the tree
	// breadth-synchronously. A finished group writes its result to every
	// probe in it.
	var cursors [window]N
	for base := 0; base < len(groups)-1; base += window {
		nodes := cursors[:min(window, len(groups)-1-base)]
		for g := range nodes {
			nodes[g] = root
		}
		for active := len(nodes); active > 0; {
			for g, nd := range nodes {
				if nd == zero {
					continue
				}
				probes := order[groups[base+g]:groups[base+g+1]]
				var v V
				ok := false
				if atLeaf(nd) {
					v, ok = resolve(nd, int(probes[0]))
					nodes[g] = zero
				} else if nodes[g] = step(nd, int(probes[0])); nodes[g] != zero {
					continue
				}
				for _, i := range probes {
					vals[i], found[i] = v, ok
				}
				active--
			}
		}
	}
	levelScratchPool.Put(sc)
}

// levelScratch is the pooled working memory of one level-wise batch: the
// probes packed for sorting, the sorted probe order, and the start of
// each group of equal keys in it.
type levelScratch struct {
	packed []uint64
	order  []int32
	groups []int32
}

var levelScratchPool = sync.Pool{New: func() any { return new(levelScratch) }}

// sortProbes returns the probe indexes in ascending key order and the
// start of every run of equal keys in that order, plus a final n. It
// sorts plain integers: each probe packs its order-preserving key bits,
// left-aligned, above its index. Keys narrower than 64 bits leave room
// for the index and sort exactly; 64-bit keys give up their low index
// bits, so keys equal in all but those bits sort by index — the order is
// then only nearly sorted, and equal keys apart in it form separate
// groups, which costs a repeated descent but never a wrong answer.
func sortProbes[K keys.Key](sc *levelScratch, ks []K) (order, groups []int32) {
	n := len(ks)
	idxBits := uint(bits.Len(uint(n - 1)))
	mask := uint64(1)<<idxBits - 1
	shift := 64 - 8*uint(keys.Width[K]())
	packed := slices.Grow(sc.packed[:0], n)[:n]
	for i, k := range ks {
		packed[i] = keys.OrderedBits(k)<<shift&^mask | uint64(i)
	}
	slices.Sort(packed)
	order = slices.Grow(sc.order[:0], n)[:n]
	groups = sc.groups[:0]
	for j, p := range packed {
		order[j] = int32(p & mask)
		if j == 0 || ks[order[j]] != ks[order[j-1]] {
			groups = append(groups, int32(j))
		}
	}
	groups = append(groups, int32(n))
	sc.packed, sc.order, sc.groups = packed, order, groups
	return order, groups
}
