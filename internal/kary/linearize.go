package kary

import (
	"slices"
	"sync"
)

// slotMap tabulates the position transformation from sorted order into
// linearized order (Formula 1 breadth-first, Formula 2 depth-first) for
// one tree geometry. At, Keys, Build and the in-place updates all map
// positions through it. It is immutable once built and shared by every
// tree of the geometry.
type slotMap struct {
	slot  []int32 // sorted position → storage slot, for every position the geometry holds
	bound []int32 // key count n → stored slots of a fresh Build with n keys
	minN  int     // fewest keys with this geometry; fewer change r (or m)

	// stride is, per level of a depth-first geometry, the slot count of
	// one child subtree below that level (k^(r−1−level) − 1); nil for
	// breadth-first geometries.
	stride []int32

	// padAt and padSlots list, per key count n, the stored slots of the
	// sorted positions from n on: padSlots[padAt[n]:padAt[n+1]], the pads
	// setMax rewrites. nil for breadth-first geometries, which store
	// every slot of the map, and for private depth-first maps.
	padAt    []int32
	padSlots []int32

	fullOnce sync.Once
	full     []int32 // key count n → registers whose every lane holds a real key
}

// geometry identifies a slot map: depth-first slots depend on (k, r)
// only, breadth-first ones also on the last-level node count m.
type geometry struct {
	layout  Layout
	k, r, m int
}

// maxCachedSlots bounds the geometries slotMaps keeps. It covers every
// Seg-Tree and Seg-Trie node at the Table 3 capacities (the largest is the
// 728-slot geometry of a 243-key 64-bit node about to split); a larger
// standalone tree gets a private map that is freed with it.
const maxCachedSlots = 1 << 12

var slotMaps sync.Map // geometry → *slotMap

// slotsFor returns the slot map of g, cached when g is small enough to
// keep. It is safe for concurrent use.
func slotsFor(g geometry) *slotMap {
	if sm, ok := slotMaps.Load(g); ok {
		return sm.(*slotMap)
	}
	sm := newSlotMap(g)
	if len(sm.slot) > maxCachedSlots {
		return sm
	}
	if g.layout == DepthFirst {
		sm.tabulatePads()
	}
	cached, _ := slotMaps.LoadOrStore(g, sm)
	return cached.(*slotMap)
}

func newSlotMap(g geometry) *slotMap {
	k, lanes := g.k, g.k-1
	upper := pow(k, g.r-1) - 1 // keys of the upper r−1 levels
	sm := &slotMap{minN: upper + 1}
	if g.layout == DepthFirst {
		sm.slot = make([]int32, pow(k, g.r)-1)
		walkDF(sm.slot, k, 0, 0, g.r)
		for level := 0; level < g.r; level++ {
			sm.stride = append(sm.stride, int32(pow(k, g.r-1-level)-1))
		}
	} else {
		// Complete tree: the last level holds m left-packed full nodes.
		sm.slot = make([]int32, upper+g.m*lanes)
		sm.minN = upper + (g.m-1)*lanes + 1
		walkBF(sm.slot, 0, k, g.r, g.m, 0, 0, 0)
	}
	// Depth-first storage is truncated at the node boundary after the last
	// real key's slot; breadth-first storage always spans the whole map.
	sm.bound = make([]int32, len(sm.slot)+1)
	for n, last := 1, 0; n <= len(sm.slot); n++ {
		last = max(last, int(sm.slot[n-1]))
		if g.layout == BreadthFirst {
			last = len(sm.slot) - 1
		}
		sm.bound[n] = int32((last/lanes + 1) * lanes)
	}
	return sm
}

// tabulatePads builds the pad table of a depth-first map. Position j's
// slot is stored from the first key count whose bound exceeds it, so it
// is a pad for every key count from then up to j.
func (sm *slotMap) tabulatePads() {
	from := make([]int, len(sm.slot))
	sm.padAt = make([]int32, len(sm.slot)+2)
	for j, p := range sm.slot {
		from[j], _ = slices.BinarySearch(sm.bound[:j+1], p+1)
		for n := from[j]; n <= j; n++ {
			sm.padAt[n+1]++
		}
	}
	for n := 1; n < len(sm.padAt); n++ {
		sm.padAt[n] += sm.padAt[n-1]
	}
	sm.padSlots = make([]int32, sm.padAt[len(sm.padAt)-1])
	next := slices.Clone(sm.padAt)
	for j, p := range sm.slot {
		for n := from[j]; n <= j; n++ {
			sm.padSlots[next[n]] = p
			next[n]++
		}
	}
}

// pads returns the slots setMax rewrites when the geometry holds n keys:
// the stored slots of the sorted positions from n on. A map without a
// pad table returns all of slot[n:], and the caller skips those at or
// above the stored count.
func (sm *slotMap) pads(n int) []int32 {
	if sm.padAt == nil {
		return sm.slot[n:]
	}
	return sm.padSlots[sm.padAt[n]:sm.padAt[n+1]]
}

// fullRegisters reports how many registers of lanes slots are full when
// the geometry holds n keys: every lane holds one of slot[0..n-1]. The
// table behind it is built on first use.
func (sm *slotMap) fullRegisters(n, lanes int) int {
	sm.fullOnce.Do(func() {
		filled := make([]int, len(sm.slot)/lanes) // real keys per register so far
		sm.full = make([]int32, len(sm.slot)+1)
		for i, p := range sm.slot {
			reg := int(p) / lanes
			filled[reg]++
			sm.full[i+1] = sm.full[i]
			if filled[reg] == lanes {
				sm.full[i+1]++
			}
		}
	})
	return int(sm.full[n])
}

// walkDF tabulates Formula 2 for the subtree of the given levels whose
// slots start at base and whose sorted positions start at first: a node's
// k−1 keys are stored first, followed by its k subtrees left to right.
func walkDF(slot []int32, k, base, first, levels int) {
	if levels == 0 {
		return
	}
	child := pow(k, levels-1) - 1 // keys, and slots, per child subtree
	for c := 0; c < k; c++ {
		if c < k-1 {
			slot[first+(c+1)*child+c] = int32(base + c)
		}
		walkDF(slot, k, base+(k-1)+c*child, first+c*(child+1), levels-1)
	}
}

// walkBF tabulates Formula 1 over a complete tree by an in-order walk:
// level R starts at slot k^R−1 (start), node j of the level stores key i
// at start + j·(k−1) + i, and the last level has only nodes j < m. s is
// the next sorted position; the walk returns the one after the subtree.
func walkBF(slot []int32, s, k, r, m, level, j, start int) int {
	if level == r || level == r-1 && j >= m {
		return s
	}
	next := start + (start+1)*(k-1) // k^(level+1) − 1
	for i := 0; i < k; i++ {
		s = walkBF(slot, s, k, r, m, level+1, j*k+i, next)
		if i < k-1 {
			slot[s] = int32(start + j*(k-1) + i)
			s++
		}
	}
	return s
}
