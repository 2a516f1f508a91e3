package kary

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bitmask"
	"repro/internal/obs"
	"repro/internal/trace"
)

// TestTracedSearchMatchesUntraced pins that the traced kernels are the
// untraced kernels: for both layouts and all evaluators, SearchT/LookupPT
// with a live trace return exactly what Search/Lookup return, and the
// recorded per-level evidence reproduces the result.
func TestTracedSearchMatchesUntraced(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 2, 15, 16, 17, 100, 1000} {
		sorted := make([]uint32, n)
		next := uint32(1)
		for i := range sorted {
			next += uint32(rng.Intn(5) + 1)
			sorted[i] = next
		}
		for _, layout := range Layouts {
			tree := Build(sorted, layout)
			for _, ev := range bitmask.Evaluators {
				name := fmt.Sprintf("n=%d/%v/%v", n, layout, ev)
				for probe := uint32(0); probe < next+3; probe += 3 {
					tr := trace.New("search", fmt.Sprint(probe))
					if got, want := tree.SearchT(probe, ev, tr), tree.Search(probe, ev); got != want {
						t.Fatalf("%s: SearchT(%d) = %d, Search = %d", name, probe, got, want)
					}
					verifySIMDSteps(t, tr, uint64(probe), name)
					ltr := trace.New("lookup", fmt.Sprint(probe))
					var c obs.Cost
					r1, f1 := tree.LookupPT(probe, new(Register), ev, ltr, &c)
					r2, f2 := tree.Lookup(probe, ev)
					if r1 != r2 || f1 != f2 {
						t.Fatalf("%s: LookupPT(%d) = (%d,%v), Lookup = (%d,%v)", name, probe, r1, f1, r2, f2)
					}
					verifySIMDSteps(t, ltr, uint64(probe), name)
				}
			}
		}
	}
}

// verifySIMDSteps checks each recorded SIMD step's position equals the
// popcount evaluation of its recorded mask — every evaluator must agree
// with Algorithm 3.
func verifySIMDSteps(t *testing.T, tr *trace.Trace, v uint64, name string) {
	t.Helper()
	for i, s := range tr.Steps {
		if s.Kind != trace.KindSIMD {
			continue
		}
		if got := bitmask.PopcountEval(s.Mask, s.Width); got != s.Position {
			t.Fatalf("%s: step %d position %d != PopcountEval(%#04x,%d)=%d",
				name, i, s.Position, s.Mask, s.Width, got)
		}
		if len(s.Loaded) == 0 {
			t.Fatalf("%s: step %d recorded no lanes", name, i)
		}
	}
	_ = v
}

// TestUpperBoundCount pins the step count: classic binary search over n
// keys takes ceil(log2(n+1)) comparisons.
func TestUpperBoundCount(t *testing.T) {
	xs := []uint32{1, 3, 5, 7, 9, 11, 13, 15}
	for v := uint32(0); v <= 16; v++ {
		pos, steps := UpperBoundCount(xs, v)
		if want := UpperBound(xs, v); pos != want {
			t.Fatalf("UpperBoundCount(%d) pos %d, want %d", v, pos, want)
		}
		// 8 elements: between floor and ceil of log2(9) halvings.
		if steps < 3 || steps > 4 {
			t.Fatalf("UpperBoundCount(%d) steps %d, want 3..4", v, steps)
		}
	}
	if _, steps := UpperBoundCount(nil, uint32(5)); steps != 0 {
		t.Fatalf("empty list steps %d", steps)
	}
}
