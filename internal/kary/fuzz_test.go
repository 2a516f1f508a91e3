package kary

import (
	"slices"
	"sort"
	"testing"

	"repro/internal/bitmask"
	"repro/internal/keys"
)

// FuzzSearchUint16 feeds arbitrary byte strings as key sets and probes and
// checks every search path against the scalar binary search.
func FuzzSearchUint16(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6}, uint16(3), false)
	f.Add([]byte{0xFF, 0xFE, 0x00, 0x01}, uint16(0xFFFE), true)
	f.Add([]byte{}, uint16(9), false)
	f.Fuzz(func(t *testing.T, raw []byte, probe uint16, df bool) {
		set := map[uint16]struct{}{}
		for i := 0; i+1 < len(raw); i += 2 {
			set[uint16(raw[i])|uint16(raw[i+1])<<8] = struct{}{}
		}
		sorted := make([]uint16, 0, len(set))
		for k := range set {
			sorted = append(sorted, k)
		}
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		layout := BreadthFirst
		if df {
			layout = DepthFirst
		}
		tree := Build(sorted, layout)
		if err := tree.Validate(); err != nil {
			t.Fatal(err)
		}
		want := UpperBound(sorted, probe)
		wantFound := want > 0 && sorted[want-1] == probe
		for _, ev := range bitmask.Evaluators {
			if got := tree.Search(probe, ev); got != want {
				t.Fatalf("%v search(%d): got %d want %d", ev, probe, got, want)
			}
		}
		rank, found := tree.Lookup(probe, bitmask.Popcount)
		if rank != want || found != wantFound {
			t.Fatalf("lookup(%d): got (%d,%v) want (%d,%v)", probe, rank, found, want, wantFound)
		}
		if got := tree.SearchWithEquality(probe, bitmask.Popcount); got != want {
			t.Fatalf("eq-search(%d): got %d want %d", probe, got, want)
		}
	})
}

// FuzzInsertDelete drives mutations from a fuzzed op stream against a
// reference set, over both layouts and over 8-bit and 64-bit keys. After
// every op the storage must be byte-identical to a fresh Build of the
// reference set: the in-place updates promise exactly that.
func FuzzInsertDelete(f *testing.F) {
	f.Add([]byte{1, 2, 3, 130, 2, 4})
	f.Add([]byte{5, 4, 3, 2, 1, 0, 127, 126, 133, 255, 128})
	f.Fuzz(func(t *testing.T, ops []byte) {
		for _, layout := range Layouts {
			checkOps(t, ops, layout, func(b byte) uint8 { return b })
			// Spread the 7-bit key over the whole 64-bit range, so the
			// realigned sign bit is exercised.
			checkOps(t, ops, layout, func(b byte) uint64 { return uint64(b)<<57 | uint64(b) })
		}
	})
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
