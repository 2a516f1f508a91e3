package kary

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/bitmask"
	"repro/internal/keys"
)

// seq returns the keys lo, lo+1, …, hi as K.
func seq[K keys.Key](lo, hi int64) []K {
	out := make([]K, 0, hi-lo+1)
	for v := lo; v <= hi; v++ {
		out = append(out, K(v))
	}
	return out
}

func TestLevels(t *testing.T) {
	cases := []struct{ n, k, want int }{
		{1, 3, 1}, {2, 3, 1}, {3, 3, 2}, {8, 3, 2}, {9, 3, 3}, {26, 3, 3},
		{27, 3, 4}, {254, 17, 2}, {404, 9, 3}, {338, 5, 4}, {242, 3, 5},
	}
	for _, c := range cases {
		if got := levels(c.n, c.k); got != c.want {
			t.Fatalf("levels(%d,%d) = %d, want %d", c.n, c.k, got, c.want)
		}
	}
}

// TestFigure4BreadthFirst reproduces the paper's Figure 4/Figure 6
// breadth-first transformation of a sorted list of 26 64-bit keys (k=3).
func TestFigure4BreadthFirst(t *testing.T) {
	tree := Build(seq[int64](1, 26), BreadthFirst)
	want := []int64{
		9, 18,
		3, 6, 12, 15, 21, 24,
		1, 2, 4, 5, 7, 8, 10, 11, 13, 14, 16, 17, 19, 20, 22, 23, 25, 26,
	}
	if got := tree.Linearized(); !reflect.DeepEqual(got, want) {
		t.Fatalf("breadth-first linearization:\n got %v\nwant %v", got, want)
	}
	if tree.Levels() != 3 || tree.Stored() != 26 || tree.Len() != 26 {
		t.Fatalf("r=%d stored=%d n=%d", tree.Levels(), tree.Stored(), tree.Len())
	}
}

func TestDepthFirstLinearization(t *testing.T) {
	tree := Build(seq[int64](1, 26), DepthFirst)
	want := []int64{
		9, 18,
		3, 6, 1, 2, 4, 5, 7, 8,
		12, 15, 10, 11, 13, 14, 16, 17,
		21, 24, 19, 20, 22, 23, 25, 26,
	}
	if got := tree.Linearized(); !reflect.DeepEqual(got, want) {
		t.Fatalf("depth-first linearization:\n got %v\nwant %v", got, want)
	}
}

// TestTable3StoredCounts verifies that the breadth-first construction
// reproduces the paper's Table 3 column N_S for all four data types.
func TestTable3StoredCounts(t *testing.T) {
	if got := Build(seq[uint8](0, 253), BreadthFirst).Stored(); got != 256 {
		t.Fatalf("8-bit N_S: got %d want 256", got)
	}
	if got := Build(seq[uint16](0, 403), BreadthFirst).Stored(); got != 408 {
		t.Fatalf("16-bit N_S: got %d want 408", got)
	}
	// The paper's Table 3 lists N_S=344 for 32-bit; the complete-tree rule
	// that reproduces the other three rows exactly gives
	// 124 + ceil(214/4)·4 = 340 — we believe 344 is an arithmetic slip in
	// the paper (see EXPERIMENTS.md).
	if got := Build(seq[uint32](0, 337), BreadthFirst).Stored(); got != 340 {
		t.Fatalf("32-bit N_S: got %d want 340", got)
	}
	if got := Build(seq[uint64](0, 241), BreadthFirst).Stored(); got != 242 {
		t.Fatalf("64-bit N_S: got %d want 242", got)
	}
}

// TestPaperWalkThroughSection31 replays the §3.1 walk-through: a
// breadth-first node with keys 0…25 searched for v=9. With the paper's
// strict greater-than comparison the first greater key is 10 at sorted
// position 10 (the paper's prose reports "9", which corresponds to a
// lower-bound reading of the same bitmasks; the binary-search baseline it
// claims equality with returns 10 for upper-bound, which is what the
// Seg-Tree pointer navigation needs).
func TestPaperWalkThroughSection31(t *testing.T) {
	sorted := seq[int64](0, 25)
	tree := Build(sorted, BreadthFirst)
	got := tree.Search(9, bitmask.Popcount)
	want := UpperBound(sorted, 9)
	if got != want || want != 10 {
		t.Fatalf("search 9: got %d want %d", got, want)
	}
}

func TestKeysRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, layout := range Layouts {
		for _, n := range []int{0, 1, 2, 3, 7, 8, 9, 26, 27, 100, 254, 255, 500} {
			sorted := randomSorted[uint32](rng, n)
			tree := Build(sorted, layout)
			if err := tree.Validate(); err != nil {
				t.Fatalf("%v n=%d: %v", layout, n, err)
			}
			if got := tree.Keys(); !reflect.DeepEqual(got, sorted) {
				t.Fatalf("%v n=%d: roundtrip mismatch\n got %v\nwant %v", layout, n, got, sorted)
			}
			for s, want := range sorted {
				if got := tree.At(s); got != want {
					t.Fatalf("%v n=%d At(%d): got %v want %v", layout, n, s, got, want)
				}
			}
		}
	}
}

// randomSorted draws n distinct random keys in ascending order.
func randomSorted[K keys.Key](rng *rand.Rand, n int) []K {
	set := make(map[K]struct{}, n)
	for len(set) < n {
		set[K(rng.Uint64())] = struct{}{}
	}
	out := make([]K, 0, n)
	for k := range set {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// probes returns a search-key mix that exercises exact hits, misses between
// keys, and both extremes.
func probes[K keys.Key](rng *rand.Rand, sorted []K, extra int) []K {
	ps := make([]K, 0, 3*len(sorted)+extra+2)
	for _, x := range sorted {
		ps = append(ps, x, x-1, x+1)
	}
	if len(sorted) > 0 {
		ps = append(ps, sorted[0]-2, sorted[len(sorted)-1]+2)
	}
	for i := 0; i < extra; i++ {
		ps = append(ps, K(rng.Uint64()))
	}
	return ps
}

func checkEquivalence[K keys.Key](t *testing.T, rng *rand.Rand, sizes []int) {
	t.Helper()
	for _, layout := range Layouts {
		for _, n := range sizes {
			sorted := randomSorted[K](rng, n)
			tree := Build(sorted, layout)
			for _, v := range probes(rng, sorted, 64) {
				want := UpperBound(sorted, v)
				for _, ev := range bitmask.Evaluators {
					if got := tree.Search(v, ev); got != want {
						t.Fatalf("%v n=%d %v search(%v): got %d want %d",
							layout, n, ev, v, got, want)
					}
				}
				if got, _ := tree.SearchWithEquality(v, bitmask.Popcount); got != want {
					t.Fatalf("%v n=%d eq-search(%v): got %d want %d", layout, n, v, got, want)
				}
			}
		}
	}
}

func TestSearchEquivalenceUint8(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	checkEquivalence[uint8](t, rng, []int{1, 2, 15, 16, 17, 100, 254, 255})
}

func TestSearchEquivalenceInt8(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	checkEquivalence[int8](t, rng, []int{1, 7, 16, 17, 100, 200})
}

func TestSearchEquivalenceUint16(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	checkEquivalence[uint16](t, rng, []int{1, 5, 8, 9, 80, 81, 404, 728, 1000})
}

func TestSearchEquivalenceInt16(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	checkEquivalence[int16](t, rng, []int{3, 9, 100, 500})
}

func TestSearchEquivalenceUint32(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	checkEquivalence[uint32](t, rng, []int{1, 4, 5, 24, 25, 124, 338, 624, 625, 2000})
}

func TestSearchEquivalenceInt32(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	checkEquivalence[int32](t, rng, []int{2, 30, 338, 1000})
}

func TestSearchEquivalenceUint64(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	checkEquivalence[uint64](t, rng, []int{1, 2, 3, 8, 9, 26, 27, 242, 243, 1000})
}

func TestSearchEquivalenceInt64(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	checkEquivalence[int64](t, rng, []int{2, 26, 242, 729})
}

func TestEmptyTree(t *testing.T) {
	tree := Build([]uint32{}, BreadthFirst)
	if got := tree.Search(5, bitmask.Popcount); got != 0 {
		t.Fatalf("empty search: got %d", got)
	}
	if got, _ := tree.SearchWithEquality(5, bitmask.Popcount); got != 0 {
		t.Fatalf("empty eq-search: got %d", got)
	}
	if _, ok := tree.Max(); ok {
		t.Fatal("empty Max ok")
	}
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSingleKey(t *testing.T) {
	for _, layout := range Layouts {
		tree := Build([]uint64{42}, layout)
		if got := tree.Search(41, bitmask.Popcount); got != 0 {
			t.Fatalf("%v search 41: got %d", layout, got)
		}
		if got := tree.Search(42, bitmask.Popcount); got != 1 {
			t.Fatalf("%v search 42: got %d", layout, got)
		}
		if got := tree.Search(43, bitmask.Popcount); got != 1 {
			t.Fatalf("%v search 43: got %d", layout, got)
		}
	}
}

func TestBuildPanicsOnUnsorted(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Build([]uint32{3, 1, 2}, BreadthFirst)
}

func TestAtPanicsOutOfRange(t *testing.T) {
	tree := Build([]uint32{1, 2, 3}, BreadthFirst)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tree.At(3)
}

func TestUpperBound(t *testing.T) {
	xs := []int32{-5, 0, 3, 3, 9}
	cases := []struct {
		v    int32
		want int
	}{{-6, 0}, {-5, 1}, {-1, 1}, {0, 2}, {2, 2}, {3, 4}, {8, 4}, {9, 5}, {10, 5}}
	for _, c := range cases {
		if got := UpperBound(xs, c.v); got != c.want {
			t.Fatalf("UpperBound(%d): got %d want %d", c.v, got, c.want)
		}
		if got := SequentialUpperBound(xs, c.v); got != c.want {
			t.Fatalf("SequentialUpperBound(%d): got %d want %d", c.v, got, c.want)
		}
	}
}

// TestSearchQuick is the property-based form of the equivalence check:
// arbitrary key sets and probes, both layouts, all widths via uint16.
func TestSearchQuick(t *testing.T) {
	f := func(raw []uint16, probe uint16, df bool) bool {
		set := make(map[uint16]struct{})
		for _, x := range raw {
			set[x] = struct{}{}
		}
		sorted := make([]uint16, 0, len(set))
		for x := range set {
			sorted = append(sorted, x)
		}
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		layout := BreadthFirst
		if df {
			layout = DepthFirst
		}
		tree := Build(sorted, layout)
		want := UpperBound(sorted, probe)
		eqRank, _ := tree.SearchWithEquality(probe, bitmask.Popcount)
		return tree.Search(probe, bitmask.Popcount) == want && eqRank == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}

func TestLayoutString(t *testing.T) {
	if BreadthFirst.String() != "breadth-first" || DepthFirst.String() != "depth-first" {
		t.Fatal("layout names")
	}
	if Layout(9).String() != "unknown" {
		t.Fatal("unknown layout name")
	}
}

// TestReplenishmentPadsAreSMax verifies §3.3: every pad slot holds S_max.
func TestReplenishmentPadsAreSMax(t *testing.T) {
	for _, layout := range Layouts {
		sorted := seq[uint64](1, 11)
		tree := Build(sorted, layout)
		lin := tree.Linearized()
		pads := 0
		for _, x := range lin {
			if x == 11 {
				pads++
			}
		}
		if pads < 2 { // at least the real 11 plus ≥1 pad
			t.Fatalf("%v: expected replenishment pads, linearized=%v", layout, lin)
		}
		if tree.Stored()%(keys.K[uint64]()-1) != 0 {
			t.Fatalf("%v: stored=%d not node aligned", layout, tree.Stored())
		}
	}
}

// TestLookupEquivalence checks Lookup against UpperBound plus a membership
// test on the sorted list, for both layouts and several widths.
func TestLookupEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	check := func(t *testing.T, tree interface {
		Lookup(v uint16, ev bitmask.Evaluator) (int, bool)
	}, sorted []uint16, v uint16) {
		t.Helper()
		rank, found := tree.Lookup(v, bitmask.Popcount)
		wantRank := UpperBound(sorted, v)
		wantFound := wantRank > 0 && sorted[wantRank-1] == v
		if rank != wantRank || found != wantFound {
			t.Fatalf("Lookup(%d): got (%d,%v) want (%d,%v)", v, rank, found, wantRank, wantFound)
		}
	}
	for _, layout := range Layouts {
		for _, n := range []int{1, 2, 8, 9, 80, 81, 404, 1000} {
			sorted := randomSorted[uint16](rng, n)
			tree := Build(sorted, layout)
			for _, v := range probes(rng, sorted, 64) {
				check(t, tree, sorted, v)
			}
		}
	}
}

func TestLookupAllWidths(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	checkW := func(t *testing.T, layout Layout) {
		t.Helper()
		s8 := randomSorted[uint8](rng, 100)
		t8 := Build(s8, layout)
		for _, v := range probes(rng, s8, 32) {
			rank, found := t8.Lookup(v, bitmask.Popcount)
			want := UpperBound(s8, v)
			if rank != want || found != (want > 0 && s8[want-1] == v) {
				t.Fatalf("%v uint8 Lookup(%d)", layout, v)
			}
		}
		s64 := randomSorted[int64](rng, 300)
		t64 := Build(s64, layout)
		for _, v := range probes(rng, s64, 64) {
			rank, found := t64.Lookup(v, bitmask.Popcount)
			want := UpperBound(s64, v)
			if rank != want || found != (want > 0 && s64[want-1] == v) {
				t.Fatalf("%v int64 Lookup(%d)", layout, v)
			}
		}
	}
	checkW(t, BreadthFirst)
	checkW(t, DepthFirst)
}

func TestLookupEmptyAndMax(t *testing.T) {
	empty := BuildUnchecked[uint32](nil, BreadthFirst)
	if rank, found := empty.Lookup(3, bitmask.Popcount); rank != 0 || found {
		t.Fatal("empty lookup")
	}
	tree := Build([]uint32{1, 5, 9}, BreadthFirst)
	if rank, found := tree.Lookup(9, bitmask.Popcount); rank != 3 || !found {
		t.Fatalf("max lookup: %d %v", rank, found)
	}
	if rank, found := tree.Lookup(10, bitmask.Popcount); rank != 3 || found {
		t.Fatalf("beyond-max lookup: %d %v", rank, found)
	}
}

// TestAtOutOfRangePanics pins the At index contract: like built-in slice
// indexing, out-of-range positions panic rather than returning a zero
// key that could be mistaken for data.
func TestAtOutOfRangePanics(t *testing.T) {
	tree := Build([]uint32{10, 20, 30, 40, 50}, BreadthFirst)
	mustPanic := func(s int) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("At(%d): no panic for out-of-range index", s)
			}
		}()
		tree.At(s)
	}
	mustPanic(-1)
	mustPanic(5)
	mustPanic(1 << 20)
	// In-range indices must not panic and must return sorted-order keys.
	for s, want := range []uint32{10, 20, 30, 40, 50} {
		if got := tree.At(s); got != want {
			t.Fatalf("At(%d): got %d want %d", s, got, want)
		}
	}
}
