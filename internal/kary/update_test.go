package kary

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"unsafe"

	"repro/internal/bitmask"
	"repro/internal/keys"
	"repro/internal/sizeclass"
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

// TestNarrowWidthFollowsSpan builds NarrowLanes trees whose keys span
// just below and at each lane boundary, signed keys across zero among
// them: the lanes are the narrowest that hold the span, based at the
// smallest key, and at the key type's width the tree is a KeyLanes
// Build. Inserting past the width or below the base widens or rebases
// the node, and its searches still agree with the sorted keys.
func TestNarrowWidthFollowsSpan(t *testing.T) {
	for _, tc := range []struct {
		lo, span uint64 // in the ordered-bits domain
		want     int
	}{
		{5, 255, 1}, {5, 256, 2}, {1 << 40, 1<<16 - 1, 2}, {1 << 40, 1 << 16, 4},
		{1 << 62, 1<<32 - 1, 4}, {1 << 62, 1 << 32, 8}, {0, ^uint64(0), 8},
	} {
		for _, layout := range Layouts {
			lo := keys.FromOrderedBits[int64](tc.lo)
			ks := []int64{lo, lo + 1, keys.FromOrderedBits[int64](tc.lo + tc.span/2), keys.FromOrderedBits[int64](tc.lo + tc.span)}
			tree := Empty[int64](layout, NarrowLanes)
			tree.Reset(ks)
			if err := tree.Validate(); err != nil || tree.Width() != tc.want || !slices.Equal(tree.Keys(), ks) {
				t.Fatalf("%v span %d from %d: %d-byte lanes, keys %v (%v); want %d-byte lanes", layout, tc.span, tc.lo, tree.Width(), tree.Keys(), err, tc.want)
			}
			if tc.want == 8 && !slices.Equal(tree.data, Build(ks, layout).data) {
				t.Fatalf("%v: key-width node differs from a KeyLanes Build", layout)
			}
			// A new minimum rebases the node, a key past the width widens
			// it; either way the searches stay exact.
			for _, x := range []int64{lo - 1000, keys.FromOrderedBits[int64](tc.lo + tc.span + 70000)} {
				if x <= ks[len(ks)-1] && x >= ks[0] || tree.Contains(x) {
					continue
				}
				tree.Insert(x)
				ks = append(ks, x)
				slices.Sort(ks)
			}
			if err := tree.Validate(); err != nil || !slices.Equal(tree.Keys(), ks) {
				t.Fatalf("%v: after inserts keys %v (%v), want %v", layout, tree.Keys(), err, ks)
			}
			for _, x := range ks {
				if rank, found := tree.Lookup(x, bitmask.Popcount); !found || rank != UpperBound(ks, x) {
					t.Fatalf("%v: Lookup(%d) = %d,%v", layout, x, rank, found)
				}
			}
		}
	}
}

// TestWideningKeepsReservedRoomOnly widens NarrowLanes nodes from
// 1-byte to 8-byte lanes. A node that a Reserve sized keeps room for
// the keys it was reserved for, so filling it allocates no storage; a
// node that only grew is rebuilt at its own size: its one-register
// storage at 1-byte lanes does not become sixteen 8-byte slots.
func TestWideningKeepsReservedRoomOnly(t *testing.T) {
	for _, layout := range Layouts {
		grown := Empty[uint64](layout, NarrowLanes)
		grown.Insert(5)
		if grown.Width() != 1 || cap(grown.data) != 16 {
			t.Fatalf("%v: one key in %d-byte lanes, %d storage bytes; want 1 and 16", layout, grown.Width(), cap(grown.data))
		}
		grown.Insert(1 << 40)
		if grown.Width() != 8 || cap(grown.data) != 16 {
			t.Fatalf("%v: widened node in %d-byte lanes with %d storage bytes, want 8 and 16", layout, grown.Width(), cap(grown.data))
		}

		const n = 242
		reserved := Empty[uint64](layout, NarrowLanes)
		reserved.Insert(5)
		reserved.Reserve(n)
		reserved.Insert(1 << 40)
		if reserved.Width() != 8 {
			t.Fatalf("%v: reserved node in %d-byte lanes after widening, want 8", layout, reserved.Width())
		}
		storage := unsafe.SliceData(reserved.data)
		for x := uint64(1<<40 + 1); reserved.Len() < n; x++ {
			reserved.Insert(x)
		}
		if unsafe.SliceData(reserved.data) != storage {
			t.Fatalf("%v: reserved node regrew after widening", layout)
		}
	}
}

// TestReserveBytesMatchesBuild checks the size Reserve and CopyCap
// give n keys against a fresh Build of n keys, for every key count up
// to past a Table 3 node (all 256 at 1-byte lanes), every lane width
// and both layouts.
func TestReserveBytesMatchesBuild(t *testing.T) {
	for _, layout := range Layouts {
		for _, w := range []int{1, 2, 4, 8} {
			for n := 2; n <= 300 && uint64(n-1) <= laneMax(w); n++ {
				// Keys 0 … n−2 and one that makes the span need w bytes.
				ks := make([]uint64, n)
				for i := range ks {
					ks[i] = uint64(i)
				}
				ks[n-1] = laneMax(w)
				fresh := Empty[uint64](layout, NarrowLanes)
				fresh.build(ks, layout, nil)
				if int(fresh.w) != w {
					t.Fatalf("%v, %d keys: built at %d-byte lanes, want %d", layout, n, fresh.w, w)
				}
				e := Empty[uint64](layout, NarrowLanes)
				e.w, e.k, e.lanes = fresh.w, fresh.k, fresh.lanes
				if got, want := e.reserveBytes(n), len(fresh.data); got != want {
					t.Fatalf("%v, %d-byte lanes, %d keys: reserveBytes %d, a fresh Build stores %d bytes",
						layout, w, n, got, want)
				}
			}
		}
	}
}

// TestCopySizedToNode checks the path-copy rule on a node a Reserve left
// with room: the copy's storage is the allocator size class of the
// node's stored bytes plus one register, not the source's capacity; it
// reuses an array of exactly that class and no larger one; and with
// room asked for, it is sized as a Reserve.
func TestCopySizedToNode(t *testing.T) {
	for _, layout := range Layouts {
		src := BuildUnchecked([]uint64{10, 20, 30, 40, 50}, layout)
		src.Reserve(242)
		want := sizeclass.Bytes(len(src.data)+registerBytes, false)
		if got := src.CopyCap(0); got != want {
			t.Fatalf("%v: CopyCap(0) = %d, want %d", layout, got, want)
		}
		var c Tree[uint64]
		c.CopyFrom(src, src.CopyCap(0))
		if cap(c.data) != want || !slices.Equal(c.Keys(), src.Keys()) {
			t.Fatalf("%v: copy of capacity %d holding %v, want %d holding %v", layout, cap(c.data), c.Keys(), want, src.Keys())
		}
		// A retired array of the class is reused; a larger one is not.
		same := c.data
		c.CopyFrom(src, want)
		if unsafe.SliceData(c.data) != unsafe.SliceData(same) {
			t.Fatalf("%v: copy did not reuse an array of its class", layout)
		}
		c.data = make([]byte, 0, 4*want)
		c.CopyFrom(src, want)
		if cap(c.data) != want {
			t.Fatalf("%v: copy kept a larger array's capacity %d, want %d", layout, cap(c.data), want)
		}
		// Room for a whole node is a Reserve's size, and appends up to it
		// keep the storage.
		c.CopyFrom(src, src.CopyCap(242))
		if got, res := cap(c.data), sizeclass.Bytes(c.reserveBytes(242), false); got != res {
			t.Fatalf("%v: copy with room for 242 keys has capacity %d, want %d", layout, got, res)
		}
		kept := unsafe.SliceData(c.data)
		for x := uint64(60); c.Len() < 242; x += 10 {
			c.InsertAt(c.Len(), x)
		}
		if unsafe.SliceData(c.data) != kept {
			t.Fatalf("%v: appends to a copy with room replaced its storage", layout)
		}
	}
}
