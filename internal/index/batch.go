package index

import "repro/internal/keys"

// This file is the batched-lookup core shared by all four tree
// structures and every wrapper: the one allocating GetBatch/ContainsBatch
// form, the one serial loop (GetEach, the tries' batch path), and the
// interleaved batch descent (Interleave) the Seg-Tree and the B+-Tree
// answer batches with.
//
// Interleave walks the probes in input order with up to cursors descents
// in flight, and every round advances each live descent by one node. One
// descent alone is a chain of dependent loads: a node's address is known
// only once its parent's search is done. Descents of different probes are
// independent, so their node loads overlap in the out-of-order window —
// memory-level parallelism, as in AMAC (Kocberber et al., VLDB 2015),
// without prefetch instructions. Nothing is sorted, deduplicated or
// copied: the engine adds one callback per node to the node searches
// themselves, so it needs no size rule to decide where it pays
// (EXPERIMENTS.md, "Batched lookups").

// cursors is the number of descents Interleave keeps in flight: enough
// independent node loads to fill the memory system, few enough that the
// cursors live in a stack array.
const cursors = 16

// Getter is the point-lookup face the serial batch loop drives.
type Getter[K keys.Key, V any] interface {
	Get(K) (V, bool)
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

// The serial loop and the interleaved descent run on every batch; the
// directive keeps their //simdtree:hotpath annotations checked by
// cmd/simdvet.
//
//simdtree:kernels ^(GetEach|Interleave)$

// GetEach answers ks with one Get each: vals[i], found[i] = g.Get(ks[i])
// for the first len(ks) entries.
//
//simdtree:hotpath
func GetEach[K keys.Key, V any](g Getter[K, V], ks []K, vals []V, found []bool) {
	vals, found = vals[:len(ks)], found[:len(ks)]
	for i, k := range ks {
		vals[i], found[i] = g.Get(k)
	}
}

// cursor is one probe's descent: its current node and the probe index.
type cursor[N comparable] struct {
	n N
	i int
}

// Interleave is the interleaved batch descent of one tree. It writes
// vals[i] and found[i] (the zero value and false for a miss) for every
// i < len(ks). It is generic over the tree's node handle N, so each
// structure keeps its own node layout: the engine never sees keys inside
// nodes.
//
// The probes descend from root in windows of up to cursors, in input
// order; each round advances every live cursor of the window by one node.
// visit is that step: for probe i at node n it returns the next node, or
// the zero N and the probe's answer (v, ok) when the descent ends — at a
// leaf, or above leaf level for a miss. It must depend only on ks[i] and
// the node.
//
//simdtree:hotpath
func Interleave[K keys.Key, V any, N comparable](
	ks []K, vals []V, found []bool,
	root N,
	visit func(n N, i int) (next N, v V, ok bool),
) {
	m := len(ks)
	var zero N
	var live [cursors]cursor[N]
	for base := 0; base < m; base += cursors {
		win := live[:min(cursors, m-base)]
		for j := range win {
			win[j] = cursor[N]{root, base + j}
		}
		// A finished cursor writes its probe's answer and leaves the
		// window: the last live cursor takes its place.
		for len(win) > 0 {
			for j := 0; j < len(win); {
				c := &win[j]
				next, v, ok := visit(c.n, c.i)
				if next != zero {
					c.n = next
					j++
					continue
				}
				vals[c.i], found[c.i] = v, ok
				*c = win[len(win)-1]
				win = win[:len(win)-1]
			}
		}
	}
}
