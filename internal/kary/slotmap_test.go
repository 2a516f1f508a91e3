package kary

import (
	"slices"
	"sync"
	"testing"

	"repro/internal/keys"
)

// TestSlotMapsMatchClosedForms pins every slot map a node can use up to
// the Table 3 capacity, plus the one key that makes a full node split,
// against the closed-form transformations — for all four key types and
// both layouts.
func TestSlotMapsMatchClosedForms(t *testing.T) {
	checkSlotMaps[uint8](t, 256)
	checkSlotMaps[uint16](t, 408)
	checkSlotMaps[uint32](t, 344)
	checkSlotMaps[uint64](t, 242)
}

func checkSlotMaps[K keys.Key](t *testing.T, capacity int) {
	t.Helper()
	k := keys.K[K]()
	// Table 3's N_S is the breadth-first storage of a full node.
	full := make([]K, capacity)
	for i := range full {
		full[i] = K(i)
	}
	if got := Build(full, BreadthFirst).Stored(); got != capacity {
		t.Fatalf("%d-byte keys: %d keys stored in %d slots, Table 3 says %d", keys.Width[K](), capacity, got, capacity)
	}
	limit := capacity + 1
	if keys.Width[K]() == 1 {
		limit = capacity // no 257th distinct 8-bit key
	}
	for _, layout := range Layouts {
		for n := 1; n <= limit; n++ {
			sorted := make([]K, n)
			for i := range sorted {
				sorted[i] = K(i)
			}
			tree := Build(sorted, layout)
			sm := tree.slots
			g := geometry{layout: layout, k: k, r: tree.r, m: tree.m}
			if sm != slotsFor(g) {
				t.Fatalf("%v n=%d: the tree does not share the cached slot map of %+v", layout, n, g)
			}
			if n < sm.minN || n > len(sm.slot) {
				t.Fatalf("%v n=%d: outside its geometry's key counts [%d, %d]", layout, n, sm.minN, len(sm.slot))
			}
			if int(sm.bound[n]) != tree.Stored() {
				t.Fatalf("%v n=%d: bound %d, Build stores %d", layout, n, sm.bound[n], tree.Stored())
			}
			for s, p := range sm.slot {
				want := posDF(s, k, tree.r)
				if layout == BreadthFirst {
					want = posComplete(s, k, tree.r, tree.m)
				}
				if int(p) != want {
					t.Fatalf("%v k=%d r=%d m=%d: slot[%d] = %d, closed form %d", layout, k, tree.r, tree.m, s, p, want)
				}
			}
		}
	}
}

// TestSlotMapGeometryBoundaries: minN is the first key count of the
// geometry — one key fewer changes r (or, breadth-first, m).
func TestSlotMapGeometryBoundaries(t *testing.T) {
	for _, layout := range Layouts {
		for n := 2; n <= 700; n++ {
			sorted := make([]uint32, n)
			for i := range sorted {
				sorted[i] = uint32(i)
			}
			a, b := Build(sorted[:n-1], layout), Build(sorted, layout)
			same := a.r == b.r && a.m == b.m
			if same != (n-1 >= b.slots.minN) {
				t.Fatalf("%v n=%d: geometry (r=%d,m=%d)->(r=%d,m=%d) but minN %d", layout, n, a.r, a.m, b.r, b.m, b.slots.minN)
			}
		}
	}
}

// TestSlotMapCacheConcurrent: goroutines racing to build a geometry
// not yet cached all get the one shared map.
func TestSlotMapCacheConcurrent(t *testing.T) {
	g := geometry{layout: DepthFirst, k: 3, r: 7}
	var wg sync.WaitGroup
	got := make([]*slotMap, 8)
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = slotsFor(g)
		}()
	}
	wg.Wait()
	for i := range got {
		if got[i] != got[0] {
			t.Fatalf("goroutine %d got a different slot map", i)
		}
	}
}

// TestLargeGeometryUsesPrivateMap: a tree beyond maxCachedSlots still
// maps every position correctly through a map the cache does not keep.
func TestLargeGeometryUsesPrivateMap(t *testing.T) {
	sorted := make([]uint16, 5000)
	for i := range sorted {
		sorted[i] = uint16(3 * i)
	}
	for _, layout := range Layouts {
		tree := Build(sorted, layout)
		if len(tree.slots.slot) <= maxCachedSlots {
			t.Fatalf("%v: %d-slot map is not beyond the cache bound", layout, len(tree.slots.slot))
		}
		if _, cached := slotMaps.Load(geometry{layout: layout, k: 9, r: tree.r, m: tree.m}); cached {
			t.Fatalf("%v: large geometry was cached", layout)
		}
		for s, want := range sorted {
			if got := tree.At(s); got != want {
				t.Fatalf("%v: At(%d) = %d want %d", layout, s, got, want)
			}
		}
		if !tree.Insert(1) || !tree.Delete(3) || tree.Validate() != nil {
			t.Fatalf("%v: update on a large tree failed", layout)
		}
		// An append rewrites the pads through the map's filtered list.
		if !tree.Insert(65535) || !slices.Equal(tree.Linearized(), Build(tree.Keys(), layout).Linearized()) {
			t.Fatalf("%v: append on a large tree differs from a fresh Build", layout)
		}
	}
}

// TestPadTableMatchesFilteredScan: for every depth-first geometry a node
// uses up to the Table 3 capacities, the pad table lists, for every key
// count, exactly the slots of slot[n:] below bound[n] — what setMax
// filtered out of the whole tail before the table. Breadth-first maps
// keep no table: they store the whole map from their first key count on.
func TestPadTableMatchesFilteredScan(t *testing.T) {
	checkPadTables[uint8](t, 256)
	checkPadTables[uint16](t, 408)
	checkPadTables[uint32](t, 344)
	checkPadTables[uint64](t, 242)
}

func checkPadTables[K keys.Key](t *testing.T, capacity int) {
	t.Helper()
	k, w := keys.K[K](), keys.Width[K]()
	for _, layout := range Layouts {
		seen := map[*slotMap]bool{}
		for size := 1; size <= capacity+1; size++ {
			g := geometry{layout: layout, k: k, r: levels(size, k)}
			if layout == BreadthFirst {
				g.m = (size - pow(k, g.r-1) + k - 1) / (k - 1)
			}
			sm := slotsFor(g)
			if seen[sm] {
				continue
			}
			seen[sm] = true
			if (sm.padAt != nil) != (layout == DepthFirst) {
				t.Fatalf("%d-byte %v %+v: pad table present = %v", w, layout, g, sm.padAt != nil)
			}
			for n := sm.minN; n <= len(sm.slot); n++ {
				var want []int32
				for _, p := range sm.slot[n:] {
					if p < sm.bound[n] {
						want = append(want, p)
					}
				}
				if got := sm.pads(n); !slices.Equal(got, want) {
					t.Fatalf("%d-byte %v %+v n=%d: pads %v, filtered scan %v", w, layout, g, n, got, want)
				}
			}
		}
	}
}
