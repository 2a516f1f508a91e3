package kary

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"unsafe"

	"repro/internal/keys"
)

func TestInsertAscendingUsesFastPathAndStaysCorrect(t *testing.T) {
	tree := BuildUnchecked([]uint16{0}, BreadthFirst)
	for v := uint16(1); v < 600; v++ {
		if !tree.Insert(v) {
			t.Fatalf("insert %d reported duplicate", v)
		}
		if err := tree.Validate(); err != nil {
			t.Fatalf("after insert %d: %v", v, err)
		}
	}
	want := make([]uint16, 600)
	for i := range want {
		want[i] = uint16(i)
	}
	if got := tree.Keys(); !reflect.DeepEqual(got, want) {
		t.Fatalf("keys after ascending inserts: %v", got[:10])
	}
}

func TestInsertAppendKeepsExistingSlotsFixed(t *testing.T) {
	// The §3.2 fast-path property: while geometry is unchanged (free pad
	// slots remain), appending a new maximum moves no existing key.
	tree := Build([]uint64{1, 2, 3}, BreadthFirst) // r=2, stored 8, 5 pads
	before := tree.Linearized()
	if !tree.Insert(10) {
		t.Fatal("insert failed")
	}
	after := tree.Linearized()
	if len(before) != len(after) {
		t.Fatalf("geometry changed: %d -> %d slots", len(before), len(after))
	}
	for s := 0; s < 3; s++ {
		if tree.At(s) != []uint64{1, 2, 3}[s] {
			t.Fatalf("existing key %d moved", s)
		}
	}
	// All pads must now equal the new maximum.
	for _, x := range after {
		if x != 1 && x != 2 && x != 3 && x != 10 {
			t.Fatalf("stale pad value %d in %v", x, after)
		}
	}
}

func TestInsertDeleteRandomMatchesReferenceSet(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for _, layout := range Layouts {
		tree := BuildUnchecked[uint16](nil, layout)
		ref := map[uint16]bool{}
		for op := 0; op < 2000; op++ {
			v := uint16(rng.Intn(300))
			if rng.Intn(2) == 0 {
				got := tree.Insert(v)
				want := !ref[v]
				if got != want {
					t.Fatalf("%v insert %d: got %v want %v", layout, v, got, want)
				}
				ref[v] = true
			} else {
				got := tree.Delete(v)
				if got != ref[v] {
					t.Fatalf("%v delete %d: got %v want %v", layout, v, got, ref[v])
				}
				delete(ref, v)
			}
			if op%97 == 0 {
				if err := tree.Validate(); err != nil {
					t.Fatalf("%v op %d: %v", layout, op, err)
				}
			}
		}
		want := make([]uint16, 0, len(ref))
		for v := range ref {
			want = append(want, v)
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		if got := tree.Keys(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%v final keys mismatch: %d vs %d keys", layout, len(got), len(want))
		}
		for v := uint16(0); v < 300; v++ {
			if tree.Contains(v) != ref[v] {
				t.Fatalf("%v contains %d mismatch", layout, v)
			}
		}
	}
}

func TestDeleteFromEmptyAndMissing(t *testing.T) {
	tree := BuildUnchecked[uint32](nil, BreadthFirst)
	if tree.Delete(4) {
		t.Fatal("delete from empty succeeded")
	}
	tree.Insert(7)
	if tree.Delete(4) {
		t.Fatal("delete of missing key succeeded")
	}
	if !tree.Delete(7) || tree.Len() != 0 {
		t.Fatal("delete of present key failed")
	}
}

func TestInsertDuplicateRejected(t *testing.T) {
	tree := Build([]int32{-3, 0, 5}, DepthFirst)
	if tree.Insert(0) {
		t.Fatal("duplicate insert accepted")
	}
	if tree.Len() != 3 {
		t.Fatalf("len %d", tree.Len())
	}
}

// TestInsertAscendingDepthFirstFastPath: the depth-first append must also
// leave existing keys in place while geometry is unchanged.
func TestInsertAscendingDepthFirstFastPath(t *testing.T) {
	tree := BuildUnchecked([]uint32{0}, DepthFirst)
	for v := uint32(1); v < 800; v++ {
		if !tree.Insert(v) {
			t.Fatalf("insert %d reported duplicate", v)
		}
		if v%37 == 0 {
			if err := tree.Validate(); err != nil {
				t.Fatalf("after insert %d: %v", v, err)
			}
		}
	}
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
	ks := tree.Keys()
	for i, k := range ks {
		if k != uint32(i) {
			t.Fatalf("index %d: %d", i, k)
		}
	}
}

// TestAppendGrowsBySizeClass appends a 64-bit depth-first node from 121 to
// 242 keys — half full to full at the Seg-Tree's Table 3 capacity. The
// storage's backing array is replaced only when the allocator's size
// class is used up (at most once per class crossed on the way from 968 to
// 1,936 bytes), and its capacity never exceeds the class of its length.
func TestAppendGrowsBySizeClass(t *testing.T) {
	ks := make([]uint64, 121)
	for i := range ks {
		ks[i] = uint64(i) << 40
	}
	tree := Build(ks, DepthFirst)
	replaced := 0
	for n := 121; n < 242; n++ {
		before := unsafe.SliceData(tree.data)
		tree.InsertAt(n, uint64(n)<<40)
		if unsafe.SliceData(tree.data) != before {
			replaced++
		}
		if class := cap(sizeClassed(len(tree.data))); cap(tree.data) > class {
			t.Fatalf("%d keys: capacity %d past the size class %d of %d bytes", n+1, cap(tree.data), class, len(tree.data))
		}
	}
	if replaced > 7 {
		t.Fatalf("storage replaced %d times, want at most 7 (one per size class crossed)", replaced)
	}
	t.Logf("storage replaced %d times", replaced)
	if fresh := Build(tree.Keys(), DepthFirst); !reflect.DeepEqual(tree.Linearized(), fresh.Linearized()) {
		t.Fatal("appended node differs from a fresh Build")
	}
}

// TestReserveKeepsStorage reserves room for a Table 3 node's keys and
// grows the tree to them, by appends and by inserts at random ranks, in
// both layouts: the storage array is never replaced, geometry changes
// included, and the node stays byte-identical to a fresh Build. A
// Reserve on a tree with keys keeps them.
func TestReserveKeepsStorage(t *testing.T) {
	reserveKeepsStorage[uint64](t, 242)
	reserveKeepsStorage[uint32](t, 338)
	reserveKeepsStorage[uint8](t, 254)
}

func reserveKeepsStorage[K keys.Key](t *testing.T, n int) {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(n)))
	for _, layout := range Layouts {
		for _, order := range []string{"append", "random"} {
			name := fmt.Sprintf("%d-bit/%v/%s", 8*keys.Width[K](), layout, order)
			tree := BuildUnchecked[K](nil, layout)
			tree.Reserve(n)
			reserved := unsafe.SliceData(tree.data)
			var ks []K
			for len(ks) < n {
				x := K(rng.Uint64())
				if order == "append" {
					x = K(len(ks))
				}
				pos, found := slices.BinarySearch(ks, x)
				if found {
					continue
				}
				tree.InsertAt(pos, x)
				ks = slices.Insert(ks, pos, x)
				if unsafe.SliceData(tree.data) != reserved {
					t.Fatalf("%s: storage replaced at %d keys", name, len(ks))
				}
			}
			if fresh := Build(ks, layout); !reflect.DeepEqual(tree.Linearized(), fresh.Linearized()) {
				t.Fatalf("%s: reserved node differs from a fresh Build", name)
			}
			tree.DeleteAt(0)
			tree.Reserve(2 * n)
			if err := tree.Validate(); err != nil || !slices.Equal(tree.Keys(), ks[1:]) {
				t.Fatalf("%s: Reserve on a tree with keys lost them (%v)", name, err)
			}
		}
	}
}
