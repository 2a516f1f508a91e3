package kary

import (
	"testing"

	"repro/internal/bitmask"
	"repro/internal/obs"
	"repro/internal/trace"
)

// TestSkipPathCosts pins the exact §4 cost counts of one node search on
// the paths that compare fewer levels than the tree has, or none: a
// breadth-first descent to a missing last-level node, the S_max
// short-circuit, and an equality exit. A depth-first node with truncated
// storage still compares every level: no descent reaches the truncated
// pad region, which the probe sweep below confirms.
func TestSkipPathCosts(t *testing.T) {
	search := func(tree *Tree[uint64], v uint64, ev bitmask.Evaluator) (int, obs.Cost) {
		var c obs.Cost
		return tree.SearchPT(v, new(Register), ev, nil, &c), c
	}
	lookup := func(tree *Tree[uint64], v uint64, ev bitmask.Evaluator) (int, obs.Cost) {
		var c obs.Cost
		r, _ := tree.LookupPT(v, new(Register), ev, nil, &c)
		return r, c
	}
	// Breadth-first, k=3: the root holds 6 and 8, the single leaf 2 and 4;
	// the leaf under the root's middle child is missing.
	bf := Build([]uint64{2, 4, 6, 8}, BreadthFirst)
	for _, tc := range []struct {
		name  string
		run   func() (int, obs.Cost)
		rank  int
		costs obs.Cost
	}{
		{"bf/both-levels", func() (int, obs.Cost) { return search(bf, 3, bitmask.Popcount) }, 1,
			obs.Cost{NodeVisits: 1, LevelsDescended: 2, SIMDComparisons: 2, MaskEvaluations: 2}},
		{"bf/missing-leaf-node", func() (int, obs.Cost) { return search(bf, 7, bitmask.Popcount) }, 3,
			obs.Cost{NodeVisits: 1, LevelsDescended: 2, SIMDComparisons: 1, MaskEvaluations: 1}},
		{"bf/missing-leaf-node-lookup", func() (int, obs.Cost) { return lookup(bf, 6, bitmask.SwitchCase) }, 3,
			obs.Cost{NodeVisits: 1, LevelsDescended: 2, SIMDComparisons: 1, MaskEvaluations: 1}},
		{"smax-short-circuit", func() (int, obs.Cost) { return search(bf, 8, bitmask.Popcount) }, 4,
			obs.Cost{NodeVisits: 1}},
		{"smax-short-circuit-above", func() (int, obs.Cost) { return lookup(bf, 100, bitmask.BitShift) }, 4,
			obs.Cost{NodeVisits: 1}},
		{"empty-node", func() (int, obs.Cost) { return search(Build([]uint64{}, DepthFirst), 5, bitmask.Popcount) }, 0,
			obs.Cost{NodeVisits: 1}},
		// The equality exit counts its equality test as a SIMD comparison
		// of its own and evaluates no mask on the hit level.
		{"equality-exit/root-hit", func() (int, obs.Cost) { return bf.SearchWithEquality(6, bitmask.Popcount) }, 3,
			obs.Cost{NodeVisits: 1, LevelsDescended: 2, SIMDComparisons: 1}},
		{"equality-exit/no-hit", func() (int, obs.Cost) { return bf.SearchWithEquality(3, bitmask.Popcount) }, 1,
			obs.Cost{NodeVisits: 1, LevelsDescended: 2, SIMDComparisons: 4, MaskEvaluations: 2}},
		{"equality-exit/leaf-hit", func() (int, obs.Cost) { return bf.SearchWithEquality(4, bitmask.Popcount) }, 2,
			obs.Cost{NodeVisits: 1, LevelsDescended: 2, SIMDComparisons: 3, MaskEvaluations: 1}},
	} {
		if rank, got := tc.run(); got != tc.costs || rank != tc.rank {
			t.Errorf("%s: rank %d, costs %+v; want rank %d, costs %+v", tc.name, rank, got, tc.rank, tc.costs)
		}
	}

	// Depth-first, k=3, 9 keys: r=3 levels, storage truncated to 10 of
	// 26 slots. Every probe below S_max compares all three levels.
	sorted := []uint64{10, 20, 30, 40, 50, 60, 70, 80, 90}
	df := Build(sorted, DepthFirst)
	if df.Levels() != 3 || df.Stored() != 10 {
		t.Fatalf("depth-first geometry: %d levels, %d stored; want 3, 10", df.Levels(), df.Stored())
	}
	want := obs.Cost{NodeVisits: 1, LevelsDescended: 3, SIMDComparisons: 3, MaskEvaluations: 3}
	for v := uint64(0); v < 90; v++ {
		tr := trace.New("search", "")
		var got obs.Cost
		if rank := df.SearchPT(v, new(Register), bitmask.Popcount, tr, &got); got != want || rank != UpperBound(sorted, v) {
			t.Fatalf("df Search(%d): rank %d, costs %+v; want rank %d, costs %+v", v, rank, got, UpperBound(sorted, v), want)
		}
		for _, s := range tr.Steps {
			if s.Kind != trace.KindSIMD {
				t.Fatalf("df Search(%d) recorded a %v step %q", v, s.Kind, s.Note)
			}
		}
	}
}
