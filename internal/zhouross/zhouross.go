// Package zhouross implements the three SIMD search strategies of Zhou
// and Ross ("Implementing Database Operations Using SIMD Instructions",
// SIGMOD 2002) that the paper discusses as related work (§6): an improved
// binary search that compares a whole SIMD register around the separator,
// a sequential SIMD scan, and the hybrid of the two. Unlike k-ary search,
// none of them reorders the sorted list — which is exactly the contrast
// the paper draws: k-ary search increases the number of *separators*,
// Zhou-Ross only widens each probe.
//
// They serve as additional baselines for the flat-array experiments and
// ablation benchmarks.
//
// The shared search kernels below are zero-allocation hot paths; the
// directive keeps their //simdtree:hotpath annotations checked by
// cmd/simdvet.
//
//simdtree:kernels ^List\.(sequentialSearch|binarySearch|hybridSearch)$
package zhouross

import (
	"fmt"

	"repro/internal/bitmask"
	"repro/internal/kary"
	"repro/internal/keys"
	"repro/internal/simd"
	"repro/internal/trace"
)

// List is a plain sorted key list augmented with the packed lane form the
// SIMD probes read. The keys stay in linear sorted order — no
// linearization.
type List[K keys.Key] struct {
	keys   []K
	packed []byte // realigned lanes, padded to a register multiple
	w      int
	lanes  int
	obias  uint64
	lmask  uint64
}

// New builds a Zhou-Ross searchable list from ascending keys. It is the
// Must-style wrapper over NewChecked: it panics on unsorted input, for
// callers constructing from literals or already-validated data. New code
// handling untrusted input should call NewChecked.
func New[K keys.Key](sorted []K) *List[K] {
	l, err := NewChecked(sorted)
	if err != nil {
		panic(err.Error()) //simdtree:allowpanic Must-style wrapper; NewChecked is the error-returning form
	}
	return l
}

// NewChecked is New returning an error wrapping keys.ErrUnsorted instead
// of panicking when the input is not strictly ascending.
func NewChecked[K keys.Key](sorted []K) (*List[K], error) {
	for i := 1; i < len(sorted); i++ {
		if sorted[i-1] >= sorted[i] {
			return nil, fmt.Errorf("zhouross: %w at index %d", keys.ErrUnsorted, i)
		}
	}
	w := keys.Width[K]()
	lanes := keys.Lanes[K]()
	l := &List[K]{
		keys:  sorted,
		w:     w,
		lanes: lanes,
		lmask: ^uint64(0) >> (64 - 8*uint(w)),
	}
	if keys.Signed[K]() {
		l.obias = 1 << (8*uint(w) - 1)
	}
	// Pad the packed form with copies of the maximum so a register load
	// never reads past the end and pads never compare smaller.
	n := len(sorted)
	padded := (n + lanes - 1) / lanes * lanes
	if padded == 0 {
		padded = lanes
	}
	l.packed = make([]byte, padded*w)
	if n == 0 {
		return l, nil
	}
	for i := 0; i < padded; i++ {
		x := sorted[n-1]
		if i < n {
			x = sorted[i]
		}
		keys.PutAt(l.packed, i, x)
	}
	return l, nil
}

// Len reports the number of keys.
func (l *List[K]) Len() int { return len(l.keys) }

func (l *List[K]) prepare(v K) simd.Search {
	return simd.NewSearch(l.w, (uint64(v)^l.obias)&l.lmask)
}

// laneStrings renders the register loaded at packed index off for a trace
// step.
func (l *List[K]) laneStrings(off int) []string {
	out := make([]string, l.lanes)
	for i := range out {
		out[i] = fmt.Sprint(keys.GetAt[K](l.packed, off+i))
	}
	return out
}

// probe records one register probe: the switch point within the register
// when the mask has one, or the full lane count when every key was ≤ v.
func (l *List[K]) probe(tr *trace.Trace, off int, mask uint16) {
	if tr == nil {
		return
	}
	pos := l.lanes
	if mask != 0 {
		pos = bitmask.PopcountEval(mask, l.w)
	}
	tr.Probe(off, l.w, l.laneStrings(off), mask, pos)
}

// SequentialSearch is the Zhou-Ross full-bandwidth sequential scan: it
// compares one register worth of keys at a time from the start and stops
// at the first register containing a greater key. It returns the index of
// the first key greater than v.
func (l *List[K]) SequentialSearch(v K) int {
	return l.sequentialSearch(v, nil)
}

// SequentialSearchTraced is SequentialSearch recording every register
// probe into tr. A nil tr makes it exactly SequentialSearch.
func (l *List[K]) SequentialSearchTraced(v K, tr *trace.Trace) int {
	if tr != nil {
		tr.SetStructure("zhouross-seq")
	}
	return l.sequentialSearch(v, tr)
}

// sequentialSearch is the shared traced/untraced scan kernel; the
// untraced entry passes tr == nil and must stay allocation-free.
//
//simdtree:hotpath
func (l *List[K]) sequentialSearch(v K, tr *trace.Trace) int {
	n := len(l.keys)
	if n == 0 {
		if tr != nil {
			tr.FastPath("empty-list", 0)
		}
		return 0
	}
	if v >= l.keys[n-1] {
		if tr != nil {
			tr.FastPath("max-short-circuit", n)
		}
		return n
	}
	search := l.prepare(v)
	step := l.lanes
	for off := 0; ; off += step {
		mask := search.Mask(l.packed[off*l.w:])
		l.probe(tr, off, mask)
		if mask != 0 {
			pos := off + bitmask.PopcountEval(mask, l.w)
			if pos > n {
				pos = n
			}
			return pos
		}
	}
}

// BinarySearch is the Zhou-Ross improved binary search: each iteration
// loads the full register of keys around the median, so the search space
// shrinks by the register width rather than a single element per step,
// and the final register resolves the position without a scalar tail.
func (l *List[K]) BinarySearch(v K) int {
	return l.binarySearch(v, nil)
}

// BinarySearchTraced is BinarySearch recording every register probe into
// tr. A nil tr makes it exactly BinarySearch.
func (l *List[K]) BinarySearchTraced(v K, tr *trace.Trace) int {
	if tr != nil {
		tr.SetStructure("zhouross-bin")
	}
	return l.binarySearch(v, tr)
}

// binarySearch is the shared traced/untraced register-binary kernel.
//
//simdtree:hotpath
func (l *List[K]) binarySearch(v K, tr *trace.Trace) int {
	n := len(l.keys)
	if n == 0 {
		if tr != nil {
			tr.FastPath("empty-list", 0)
		}
		return 0
	}
	if v >= l.keys[n-1] {
		if tr != nil {
			tr.FastPath("max-short-circuit", n)
		}
		return n
	}
	search := l.prepare(v)
	step := l.lanes
	lo, hi := 0, (len(l.packed)/l.w)/step // register-granular range
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		mask := search.Mask(l.packed[mid*step*l.w:])
		l.probe(tr, mid*step, mask)
		switch {
		case mask == 0:
			// Every key in the register is ≤ v.
			lo = mid + 1
		case bitmask.PopcountEval(mask, l.w) == 0:
			// Every key in the register is > v.
			hi = mid
		default:
			// The switch point lies inside this register.
			pos := mid*step + bitmask.PopcountEval(mask, l.w)
			if pos > n {
				pos = n
			}
			return pos
		}
	}
	pos := lo * step
	if pos > n {
		pos = n
	}
	return pos
}

// HybridSearch is the Zhou-Ross combination: binary search over registers
// until the range is small, then a sequential SIMD scan of the remainder.
func (l *List[K]) HybridSearch(v K) int {
	return l.hybridSearch(v, nil)
}

// HybridSearchTraced is HybridSearch recording every register probe into
// tr — the trace shows the binary phase's jumps turning into the scan
// phase's consecutive offsets. A nil tr makes it exactly HybridSearch.
func (l *List[K]) HybridSearchTraced(v K, tr *trace.Trace) int {
	if tr != nil {
		tr.SetStructure("zhouross-hyb")
	}
	return l.hybridSearch(v, tr)
}

// hybridSearch is the shared traced/untraced hybrid kernel.
//
//simdtree:hotpath
func (l *List[K]) hybridSearch(v K, tr *trace.Trace) int {
	const crossover = 8 // registers; below this the scan wins
	n := len(l.keys)
	if n == 0 {
		if tr != nil {
			tr.FastPath("empty-list", 0)
		}
		return 0
	}
	if v >= l.keys[n-1] {
		if tr != nil {
			tr.FastPath("max-short-circuit", n)
		}
		return n
	}
	search := l.prepare(v)
	step := l.lanes
	lo, hi := 0, (len(l.packed)/l.w)/step
	for hi-lo > crossover {
		mid := int(uint(lo+hi) >> 1)
		mask := search.Mask(l.packed[mid*step*l.w:])
		l.probe(tr, mid*step, mask)
		switch {
		case mask == 0:
			lo = mid + 1
		case bitmask.PopcountEval(mask, l.w) == 0:
			hi = mid
		default:
			pos := mid*step + bitmask.PopcountEval(mask, l.w)
			if pos > n {
				pos = n
			}
			return pos
		}
	}
	for off := lo * step; off < hi*step+step; off += step {
		if off*l.w >= len(l.packed) {
			break
		}
		mask := search.Mask(l.packed[off*l.w:])
		l.probe(tr, off, mask)
		if mask != 0 {
			pos := off + bitmask.PopcountEval(mask, l.w)
			if pos > n {
				pos = n
			}
			return pos
		}
	}
	pos := hi*step + step
	if pos > n {
		pos = n
	}
	return pos
}

// ScalarSearch is the classic binary-search baseline.
func (l *List[K]) ScalarSearch(v K) int {
	return kary.UpperBound(l.keys, v)
}
