package kary

import (
	"encoding/binary"
	"fmt"

	"repro/internal/bitmask"
	"repro/internal/keys"
	"repro/internal/obs"
	"repro/internal/simd"
	"repro/internal/trace"
)

// The node search below is the zero-allocation hot path of the paper's
// Algorithms 4 and 5; the lane moves of the in-place updates (update.go)
// must not allocate either. The directive keeps their //simdtree:hotpath
// annotations checked by cmd/simdvet.
//
//simdtree:kernels ^(Tree\.(SearchPT|LookupPT|lookup|maskDigit|SearchWithEquality|view|setMax)|clamp|count)$

// Search returns the index, in the original sorted order, of the first key
// strictly greater than v — the same value binary search on the sorted list
// yields, in [0, Len()]. It runs the paper's SIMD sequence once per k-ary
// tree level, as Algorithm 5 (breadth-first) or Algorithm 4
// (depth-first), and evaluates each comparison with ev.
func (t *Tree[K]) Search(v K, ev bitmask.Evaluator) int {
	rank, _ := t.lookup(v, Prepare(v), ev, nil, false, nil)
	return rank
}

// SearchT is Search additionally recording every level's loaded lanes,
// movemask and verdict into tr (nil records nothing). The traced and
// untraced paths share one kernel, so a trace shows exactly what the
// search executed.
func (t *Tree[K]) SearchT(v K, ev bitmask.Evaluator, tr *trace.Trace) int {
	return t.SearchPT(v, Prepare(v), ev, tr, nil)
}

// SearchPT is Search with a caller-prepared search register (see
// Prepare), so one tree descent broadcasts the key only once, and with
// per-level trace recording into tr (nil records nothing and costs one
// pointer comparison per level) that adds the search's §4 cost to c (nil
// adds nothing). It is the rank of the same descent LookupPT runs.
//
//simdtree:hotpath
func (t *Tree[K]) SearchPT(v K, search simd.Search, ev bitmask.Evaluator, tr *trace.Trace, c *obs.Cost) int {
	rank, _ := t.lookup(v, search, ev, tr, false, c)
	return rank
}

// Lookup combines Search with a membership test: it returns the rank (the
// index of the first key greater than v) and whether v itself is present.
// The equality information falls out of the descent for free — every
// visited node's compare also tests its loaded lanes for equality, so
// callers avoid the position transformation a separate At(rank-1)
// comparison would cost.
func (t *Tree[K]) Lookup(v K, ev bitmask.Evaluator) (rank int, found bool) {
	return t.lookup(v, Prepare(v), ev, nil, true, nil)
}

// LookupPT is Lookup with a caller-prepared search register (see
// Prepare) and per-level trace recording into tr (nil records nothing
// and costs one pointer comparison per level) that adds the search's §4
// cost to c (nil adds nothing).
//
//simdtree:hotpath
func (t *Tree[K]) LookupPT(v K, search simd.Search, ev bitmask.Evaluator, tr *trace.Trace, c *obs.Cost) (rank int, found bool) {
	return t.lookup(v, search, ev, tr, true, c)
}

// count adds one node search to c, when non-nil: a node visit, the k-ary
// levels it descended and its SIMD compares, each evaluated once into a
// digit (§4).
//
//simdtree:hotpath
func count(c *obs.Cost, levels, compares int) {
	if c != nil {
		c.NodeVisits++
		c.LevelsDescended += uint64(levels)
		c.SIMDComparisons += uint64(compares)
		c.MaskEvaluations += uint64(compares)
	}
}

// lookup is the one node search behind Search and Lookup: the §3.3 fast
// paths, then the layout's descent, then one count of the node's §4 cost
// into c (nil counts nothing). The paper's Algorithms 4 (depth-first)
// and 5 (breadth-first) share the loop and differ only in where the
// chosen child lies. wantEq asks for the membership bit: each level then
// also tests the loaded node for an equal lane. A Search skips that
// test, and its trace shows no equality hits.
//
// Each level computes its digit — how many keys of the loaded node are
// ≤ v, the child to descend to — with the lane width's Rank kernel of
// simd.Search: Algorithm 3 without a movemask and without a branch on
// the data. Because K fixes the width, the width cases below fold away
// and the kernel inlines into the loop. Another evaluator, or a trace,
// takes maskDigit behind one well-predicted branch.
//
//simdtree:hotpath
func (t *Tree[K]) lookup(v K, search simd.Search, ev bitmask.Evaluator, tr *trace.Trace, wantEq bool, c *obs.Cost) (rank int, found bool) {
	if t.n == 0 {
		if tr != nil {
			tr.FastPath("empty-node", 0)
		}
		count(c, 0, 0)
		return 0, false
	}
	// §3.3: replenishment check. If v is not smaller than S_max, no key is
	// greater; this also guarantees the descent never reads pad-only
	// regions outside the truncated storage. S_max is always a real key.
	if v >= t.smax {
		if tr != nil {
			tr.FastPath("smax-short-circuit", t.n)
		}
		count(c, 0, 0)
		return t.n, v == t.smax
	}
	w, k, lanes := keys.Width[K](), keys.K[K](), keys.Lanes[K]()
	df, slow := t.layout == DepthFirst, ev != bitmask.Popcount || tr != nil
	keyIdx, R := 0, 0
	for ; R < t.r && keyIdx < t.stored; R++ {
		node := t.data[keyIdx*w : keyIdx*w+16]
		lo, hi := binary.LittleEndian.Uint64(node), binary.LittleEndian.Uint64(node[8:])
		eq := wantEq && search.Eq(lo, hi)
		var d int
		switch {
		case slow:
			d = t.maskDigit(search, ev, tr, R, keyIdx, eq)
		case w == 1:
			d = search.Rank8(lo, hi)
		case w == 2:
			d = search.Rank16(lo, hi)
		case w == 4:
			d = search.Rank32(lo, hi)
		default:
			d = search.Rank64(lo, hi)
		}
		found = found || eq
		if df {
			// Algorithm 4: jump over d child subtrees, whose slot count
			// comes from the geometry's stride table; each puts its keys
			// and one separator below v.
			sub := int(t.slots.stride[R])
			rank += d * (sub + 1)
			keyIdx += lanes + d*sub
		} else {
			// Algorithm 5 over a complete tree: the upper levels are
			// perfect, so the rank accumulates one digit per level and
			// doubles as the node index within the next level, which
			// starts at slot k^(R+1)−1; the child of digit d below the
			// node at slot i is at slot k·i + (d+1)·(k−1).
			rank = rank*k + d
			keyIdx = keyIdx*k + (d+1)*lanes
		}
	}
	if R < t.r {
		// The descent reached a node beyond the stored slots. Only a
		// breadth-first last-level node can be missing: every depth-first
		// subtree a descent enters holds the key after the last key ≤ v,
		// a real key because v < S_max, and a node is stored before its
		// subtree. A missing leaf means v is larger than every key of all
		// m existing leaves, which therefore all count as ≤ v.
		rank += t.m * lanes
		if tr != nil {
			tr.Skip(R, "missing-leaf-node")
		}
	}
	count(c, t.r, R)
	return clamp(rank, t.n), found
}

// maskDigit is the level step of the evaluator ablation and of traced
// descents: it builds the node's movemask, evaluates it with ev (the
// paper's Algorithms 1–3) and records the level into tr.
//
//simdtree:hotpath
func (t *Tree[K]) maskDigit(search simd.Search, ev bitmask.Evaluator, tr *trace.Trace, level, keyIdx int, eq bool) int {
	w := int(t.w)
	mask := search.Mask(t.data[keyIdx*w:])
	d := ev.Evaluate(mask, w)
	if tr != nil {
		tr.SIMD(level, w, t.laneStrings(keyIdx), mask, eq, d)
	}
	return d
}

// laneStrings formats the lane values of the node starting at slot
// keyIdx for a trace step; called only on traced descents.
func (t *Tree[K]) laneStrings(keyIdx int) []string {
	lanes := int(t.lanes)
	out := make([]string, lanes)
	for i := 0; i < lanes; i++ {
		out[i] = fmt.Sprint(keys.GetAt[K](t.data, keyIdx+i))
	}
	return out
}

//simdtree:hotpath
func clamp(x, hi int) int {
	if x > hi {
		return hi
	}
	return x
}

// SearchWithEquality is the §3.1 extension the paper discusses: each level
// additionally tests the loaded node for equality — no extra load, both
// results come from the same register — and terminates the descent early
// on a hit. The paper expects no improvement for flat trees;
// BenchmarkAblationEqualityCheck measures it. Only the breadth-first
// layout is supported, matching the paper's discussion. The returned cost
// counts the equality test as a SIMD comparison of its own, and a hit
// level evaluates no greater-than mask.
//
//simdtree:hotpath
func (t *Tree[K]) SearchWithEquality(v K, ev bitmask.Evaluator) (int, obs.Cost) {
	if t.layout != BreadthFirst || t.n == 0 || v >= t.smax {
		var c obs.Cost
		return t.SearchPT(v, Prepare(v), ev, nil, &c), c
	}
	w, k, lanes := int(t.w), int(t.k), int(t.lanes)
	search := Prepare(v)
	rank, keyIdx, compares, hit := 0, 0, 0, false
	for R := 0; R < t.r; R++ {
		if R == t.r-1 && rank >= t.m {
			rank += t.m * lanes // missing last-level node, as in lookup
			break
		}
		d, eq := search.Rank(t.data[keyIdx*w:])
		compares++
		if hit = eq; hit {
			// v is key d−1 of the node and every deeper digit is 0: an
			// upper-level hit ends the descent on the last full level at
			// t1 = (rank·k + d)·k^(r−2−R), and each of the first
			// min(t1, m) upper keys is preceded by one full leaf.
			rank = rank*k + d
			if R < t.r-1 {
				t1 := rank * pow(k, t.r-2-R)
				rank = t1 + min(t1, t.m)*lanes
			}
			break
		}
		if ev != bitmask.Popcount {
			d = t.maskDigit(search, ev, nil, R, keyIdx, false)
		}
		rank = rank*k + d
		keyIdx = keyIdx*k + (d+1)*lanes
	}
	evals := compares
	if hit {
		evals--
	}
	return clamp(rank, t.n), obs.Cost{NodeVisits: 1, LevelsDescended: uint64(t.r),
		SIMDComparisons: uint64(compares + evals), MaskEvaluations: uint64(evals)}
}

// UpperBound is the baseline the paper compares against: classic binary
// search returning the index of the first element strictly greater than v.
func UpperBound[K keys.Key](xs []K, v K) int {
	pos, _ := UpperBoundCount(xs, v)
	return pos
}

// UpperBoundCount is UpperBound additionally reporting the number of
// comparison steps the binary search took, for per-operation tracing.
func UpperBoundCount[K keys.Key](xs []K, v K) (pos, steps int) {
	lo, hi := 0, len(xs)
	for lo < hi {
		steps++
		mid := int(uint(lo+hi) >> 1)
		if xs[mid] <= v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, steps
}

// SequentialUpperBound is the sequential scan strategy mentioned among the
// classic inner-node search strategies (§1); used as an extra baseline.
func SequentialUpperBound[K keys.Key](xs []K, v K) int {
	for i, x := range xs {
		if x > v {
			return i
		}
	}
	return len(xs)
}
