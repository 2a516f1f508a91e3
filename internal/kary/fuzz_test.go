package kary

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bitmask"
	"repro/internal/keys"
	"repro/internal/trace"
)

// FuzzNodeSearchKernels checks every node search kernel against the
// scalar binary search, over all eight key types, both layouts and all
// three evaluators. The keys are the width-sized chunks of raw plus size
// keys drawn from seed, up to three Table 3 nodes; typ picks the key type.
// Search, Lookup, SearchT with a live trace and SearchWithEquality must
// all return UpperBound and its membership bit, for the probe and for up
// to 64 of the keys and the values next to each. The same keys folded
// into a window above the smallest — spans of 2^8, 2^16 and 2^32 keys
// and one more, picked by seed — are checked in a NarrowLanes tree,
// whose lanes are then 1, 2, 4 or 8 bytes wide.
func FuzzNodeSearchKernels(f *testing.F) {
	// The seed corpus of the uint16-only target this one generalizes.
	f.Add([]byte{1, 2, 3, 4, 5, 6}, uint64(3), false, uint8(2), int64(0), uint16(0))
	f.Add([]byte{0xFF, 0xFE, 0x00, 0x01}, uint64(0xFFFE), true, uint8(2), int64(0), uint16(0))
	f.Add([]byte{}, uint64(9), false, uint8(2), int64(0), uint16(0))
	for typ := uint8(0); typ < 8; typ++ {
		f.Add([]byte{}, uint64(1)<<63|5, typ%2 == 0, typ, int64(typ), uint16(2000))
	}
	f.Fuzz(func(t *testing.T, raw []byte, probe uint64, df bool, typ uint8, seed int64, size uint16) {
		layout := BreadthFirst
		if df {
			layout = DepthFirst
		}
		switch typ % 8 {
		case 0:
			checkNodeSearch[uint8](t, raw, probe, layout, seed, size, 254)
		case 1:
			checkNodeSearch[int8](t, raw, probe, layout, seed, size, 254)
		case 2:
			checkNodeSearch[uint16](t, raw, probe, layout, seed, size, 404)
		case 3:
			checkNodeSearch[int16](t, raw, probe, layout, seed, size, 404)
		case 4:
			checkNodeSearch[uint32](t, raw, probe, layout, seed, size, 338)
		case 5:
			checkNodeSearch[int32](t, raw, probe, layout, seed, size, 338)
		case 6:
			checkNodeSearch[uint64](t, raw, probe, layout, seed, size, 242)
		default:
			checkNodeSearch[int64](t, raw, probe, layout, seed, size, 242)
		}
	})
}

// checkNodeSearch builds one tree for FuzzNodeSearchKernels, with at most
// three nodes' worth (3·node) of keys, and checks its searches.
func checkNodeSearch[K keys.Key](t *testing.T, raw []byte, probe uint64, layout Layout, seed int64, size uint16, node int) {
	w := keys.Width[K]()
	set := map[K]bool{}
	for i := 0; i+w <= len(raw) && len(set) < 3*node; i += w {
		set[keys.Get[K](raw[i:])] = true
	}
	rng := rand.New(rand.NewSource(seed))
	for want := min(len(set)+int(size)%(3*node+1), 3*node, 1<<(8*min(w, 4))); len(set) < want; {
		set[K(rng.Uint64())] = true
	}
	sorted := make([]K, 0, len(set))
	for k := range set {
		sorted = append(sorted, k)
	}
	slices.Sort(sorted)
	tree := Build(sorted, layout)
	checkSearches(t, tree, sorted, K(probe))
	// The window: 2^(8j) values, one more for odd seeds, so the span
	// either just fits j-byte lanes or just misses them.
	j := 1 + int(uint64(seed)>>1)%3
	window := uint64(1)<<(8*j) + uint64(seed&1)
	set = map[K]bool{}
	for _, x := range sorted {
		d := (keys.OrderedBits(x) - keys.OrderedBits(sorted[0])) % window
		set[keys.FromOrderedBits[K](keys.OrderedBits(sorted[0])+d)] = true
	}
	if len(sorted) > 0 && window-1 <= ^uint64(0)>>(64-8*uint(w)) {
		set[keys.FromOrderedBits[K](keys.OrderedBits(sorted[0])+window-1)] = true
	}
	narrowed := sorted[:0]
	for k := range set {
		narrowed = append(narrowed, k)
	}
	slices.Sort(narrowed)
	narrow := Empty[K](layout, NarrowLanes)
	narrow.Reset(narrowed)
	checkSearches(t, &narrow, narrowed, K(probe))
}

// checkSearches validates tree, built from sorted, and checks every
// search of FuzzNodeSearchKernels on it.
func checkSearches[K keys.Key](t *testing.T, tree *Tree[K], sorted []K, probe K) {
	layout := tree.Layout()
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
	probes := []K{probe}
	for i := 0; i < len(sorted); i += 1 + len(sorted)/64 { // at most 64 keys
		probes = append(probes, sorted[i]-1, sorted[i], sorted[i]+1)
	}
	for _, v := range probes {
		want := UpperBound(sorted, v)
		wantFound := want > 0 && sorted[want-1] == v
		for _, ev := range bitmask.Evaluators {
			if got := tree.Search(v, ev); got != want {
				t.Fatalf("%v %v %d-byte lanes n=%d: Search(%v) = %d, want %d", layout, ev, tree.Width(), len(sorted), v, got, want)
			}
			if rank, found := tree.Lookup(v, ev); rank != want || found != wantFound {
				t.Fatalf("%v %v n=%d: Lookup(%v) = (%d,%v), want (%d,%v)", layout, ev, len(sorted), v, rank, found, want, wantFound)
			}
			tr := trace.New("search", "")
			if got := tree.SearchT(v, ev, tr); got != want {
				t.Fatalf("%v %v n=%d: SearchT(%v) = %d, want %d", layout, ev, len(sorted), v, got, want)
			}
			// Below S_max a depth-first descent compares every level,
			// unless v lies below a narrow tree's base.
			if smax, ok := tree.Max(); layout == DepthFirst && ok && v < smax && keys.OrderedBits(v) >= tree.base && tr.SIMDComparisons() != tree.Levels() {
				t.Fatalf("n=%d: depth-first SearchT(%v) compared %d of %d levels", len(sorted), v, tr.SIMDComparisons(), tree.Levels())
			}
			if got, _ := tree.SearchWithEquality(v, ev); got != want {
				t.Fatalf("%v %v n=%d: SearchWithEquality(%v) = %d, want %d", layout, ev, len(sorted), v, got, want)
			}
		}
	}
}

// FuzzInsertDelete drives mutations from a fuzzed op stream against a
// reference set, over both layouts and every lane width: 8-, 16-, 32- and
// 64-bit keys. After every op the storage must be byte-identical to a
// fresh Build of the reference set: the in-place updates promise exactly
// that. NarrowLanes trees take keys whose spans cross 2^8, 2^16 and 2^32
// as they come and go, signed ones across zero: they must hold the
// reference keys at a width that spans them, and be byte-identical to
// the fresh Build whenever they are at the key type's width.
func FuzzInsertDelete(f *testing.F) {
	f.Add([]byte{1, 2, 3, 130, 2, 4})
	f.Add([]byte{5, 4, 3, 2, 1, 0, 127, 126, 133, 255, 128})
	// All 128 keys in a scattered order, then every other one deleted:
	// every width passes through several geometries and both pad paths.
	all := make([]byte, 0, 192)
	for i := 0; i < 128; i++ {
		all = append(all, byte(i*37%128))
	}
	for i := 0; i < 64; i++ {
		all = append(all, 0x80|byte(i*106%128))
	}
	f.Add(all)
	// Keys 0-127 in, then the smallest ones out: the narrow trees widen
	// as the span grows and keep their base as the minimum leaves.
	grow := make([]byte, 0, 192)
	for i := 0; i < 128; i++ {
		grow = append(grow, byte(i))
	}
	for i := 0; i < 64; i++ {
		grow = append(grow, 0x80|byte(i))
	}
	f.Add(grow)
	f.Fuzz(func(t *testing.T, ops []byte) {
		for _, layout := range Layouts {
			checkOps(t, ops, layout, func(b byte) uint8 { return b })
			// Spread the 7-bit key so its top bit is the lane's top bit:
			// unsigned keys exercise the realigned sign bit, and the
			// signed keys are half negative.
			checkOps(t, ops, layout, func(b byte) uint16 { return uint16(b)<<9 | uint16(b) })
			checkOps(t, ops, layout, func(b byte) int32 { return int32(uint32(b)<<25 | uint32(b)) })
			checkOps(t, ops, layout, func(b byte) uint64 { return uint64(b)<<57 | uint64(b) })
			checkNarrowOps(t, ops, layout, func(b byte) uint16 { return 1000 + 3*uint16(b) })
			checkNarrowOps(t, ops, layout, func(b byte) int32 { return (int32(b) - 64) * 1031 })
			checkNarrowOps(t, ops, layout, func(b byte) int64 { return (int64(b) - 64) << 26 })
			checkNarrowOps(t, ops, layout, func(b byte) uint64 { return 1<<40 + uint64(b)*uint64(b)<<20 })
		}
	})
}

// checkNarrowOps applies ops as checkOps does to a NarrowLanes tree and
// checks it after each one: its keys are the reference set's, it
// validates, its width spans them, and at the key type's width it is a
// fresh Build.
func checkNarrowOps[K keys.Key](t *testing.T, ops []byte, layout Layout, key func(byte) K) {
	t.Helper()
	tree := Empty[K](layout, NarrowLanes)
	ref := map[K]bool{}
	for i, op := range ops {
		k := key(op & 0x7F)
		if op&0x80 == 0 {
			if tree.Insert(k) != !ref[k] {
				t.Fatalf("%v op %d: insert %d", layout, i, k)
			}
			ref[k] = true
		} else {
			if tree.Delete(k) != ref[k] {
				t.Fatalf("%v op %d: delete %d", layout, i, k)
			}
			delete(ref, k)
		}
		sorted := make([]K, 0, len(ref))
		for k := range ref {
			sorted = append(sorted, k)
		}
		slices.Sort(sorted)
		if err := tree.Validate(); err != nil || !slices.Equal(tree.Keys(), sorted) {
			t.Fatalf("%v op %d (%d): keys %v, want %v (%v)", layout, i, op, tree.Keys(), sorted, err)
		}
		if n := len(sorted); n > 0 {
			if span := keys.OrderedBits(sorted[n-1]) - keys.OrderedBits(sorted[0]); span > laneMax(tree.Width()) {
				t.Fatalf("%v op %d: %d-byte lanes for a span of %d", layout, i, tree.Width(), span)
			}
		}
		if tree.Width() == keys.Width[K]() {
			if fresh := Build(sorted, layout); !slices.Equal(tree.Linearized(), fresh.Linearized()) || tree.Stored() != fresh.Stored() {
				t.Fatalf("%v op %d: key-width node differs from a fresh Build", layout, i)
			}
		}
	}
}

// checkOps applies ops (low 7 bits: key, top bit: delete) to a tree and a
// reference set and compares the tree with a fresh Build after each one.
func checkOps[K keys.Key](t *testing.T, ops []byte, layout Layout, key func(byte) K) {
	t.Helper()
	tree := BuildUnchecked[K](nil, layout)
	ref := map[K]bool{}
	for i, op := range ops {
		k := key(op & 0x7F)
		if op&0x80 == 0 {
			if tree.Insert(k) != !ref[k] {
				t.Fatalf("%v op %d: insert %d", layout, i, k)
			}
			ref[k] = true
		} else {
			if tree.Delete(k) != ref[k] {
				t.Fatalf("%v op %d: delete %d", layout, i, k)
			}
			delete(ref, k)
		}
		sorted := make([]K, 0, len(ref))
		for k := range ref {
			sorted = append(sorted, k)
		}
		slices.Sort(sorted)
		fresh := Build(sorted, layout)
		if !slices.Equal(tree.Linearized(), fresh.Linearized()) || tree.Stored() != fresh.Stored() ||
			tree.Len() != fresh.Len() || tree.Levels() != fresh.Levels() {
			t.Fatalf("%v op %d (%d): storage %v (%d stored, %d keys) differs from a fresh Build %v (%d stored, %d keys)",
				layout, i, op, tree.Linearized(), tree.Stored(), tree.Len(), fresh.Linearized(), fresh.Stored(), fresh.Len())
		}
		gotMax, gotOK := tree.Max()
		wantMax, wantOK := fresh.Max()
		if gotMax != wantMax || gotOK != wantOK {
			t.Fatalf("%v op %d: max (%d,%v) want (%d,%v)", layout, i, gotMax, gotOK, wantMax, wantOK)
		}
	}
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
}
