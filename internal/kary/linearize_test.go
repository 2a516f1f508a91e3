package kary

import (
	"testing"
	"testing/quick"
)

// Closed forms of the position transformations, iterative versions of the
// paper's recursive Formula 1 (breadth-first) and Formula 2 (depth-first).
// The slot maps the trees use are tabulated by walks instead; these are
// the oracles the walks are pinned against.
//
// With T_R = k^(r−R) (the sorted span one level-R subtree covers,
// separators included), the keys of the level-R node j are the sorted
// positions j·T_R + (i+1)·T_{R+1} − 1 for i = 0 … k−2. Equivalently,
// sorted position s lies on level R = r−1−e where e is the multiplicity of
// k in s+1 (capped at r−1).

// posBF maps sorted position s to its breadth-first slot (Formula 1):
// levels are stored contiguously, the level-R region starting at slot
// k^R − 1, nodes left to right, keys left to right within a node.
func posBF(s, k, r int) int {
	q := s + 1
	e := 0
	for q%k == 0 && e < r-1 {
		q /= k
		e++
	}
	// Level R = r−1−e; q = j·k + (i+1) encodes node index j within the
	// level and key index i within the node.
	j := q / k
	i := q%k - 1
	levelStart := pow(k, r-1-e) - 1
	return levelStart + j*(k-1) + i
}

// posDF maps sorted position s to its depth-first slot (Formula 2): a
// node's k−1 keys are stored first, followed by its k subtrees in order.
func posDF(s, k, r int) int {
	pos := 0
	rem := s                  // position within the current subtree's sorted range
	childCap := pow(k, r) / k // T_{R+1}: sorted span of each child subtree
	for {
		if (rem+1)%childCap == 0 {
			// Separator of the current node.
			return pos + (rem+1)/childCap - 1
		}
		c := (rem + 1) / childCap
		// Skip this node's keys and the c preceding subtrees, each
		// holding childCap−1 keys.
		pos += (k - 1) + c*(childCap-1)
		rem -= c * childCap
		childCap /= k
	}
}

// posComplete maps sorted position s to its breadth-first slot in a
// complete k-ary tree of r levels with m last-level nodes: the upper r−1
// levels form a perfect tree mapped by posBF, the last level is left-packed
// starting at slot k^(r−1)−1. In-order, leaf j covers sorted positions
// j·k … j·k+k−2 and is followed by one upper key; once the leaves are
// exhausted the remaining sorted positions are all upper keys.
func posComplete(s, k, r, m int) int {
	if r == 1 {
		return s
	}
	if s < m*k && (s+1)%k != 0 {
		j := s / k
		return pow(k, r-1) - 1 + j*(k-1) + (s - j*k)
	}
	var upperIdx int
	if s < m*k {
		upperIdx = (s+1)/k - 1
	} else {
		upperIdx = s - m*(k-1)
	}
	return posBF(upperIdx, k, r-1)
}

// TestPositionMapsAreBijections: for every geometry, the slot
// transformation must map the sorted positions 0…n'−1 onto distinct slots
// covering exactly the stored range — the property that makes
// linearization invertible (DESIGN.md §8).
func TestPositionMapsAreBijections(t *testing.T) {
	for _, k := range []int{3, 5, 9, 17} {
		for r := 1; r <= 4; r++ {
			cap := pow(k, r) - 1
			if cap > 100000 {
				continue
			}
			// Perfect depth-first map over the full capacity.
			seen := make([]bool, cap)
			for s := 0; s < cap; s++ {
				p := posDF(s, k, r)
				if p < 0 || p >= cap {
					t.Fatalf("k=%d r=%d: posDF(%d)=%d out of range", k, r, s, p)
				}
				if seen[p] {
					t.Fatalf("k=%d r=%d: posDF collision at %d", k, r, p)
				}
				seen[p] = true
			}
			// Perfect breadth-first map.
			seen = make([]bool, cap)
			for s := 0; s < cap; s++ {
				p := posBF(s, k, r)
				if p < 0 || p >= cap {
					t.Fatalf("k=%d r=%d: posBF(%d)=%d out of range", k, r, s, p)
				}
				if seen[p] {
					t.Fatalf("k=%d r=%d: posBF collision at %d", k, r, p)
				}
				seen[p] = true
			}
			// Complete breadth-first map for every possible leaf count.
			if r >= 2 {
				upper := pow(k, r-1) - 1
				for m := 1; m <= pow(k, r-1); m += pow(k, r-1)/3 + 1 {
					total := upper + m*(k-1)
					seen = make([]bool, total)
					for s := 0; s < total; s++ {
						p := posComplete(s, k, r, m)
						if p < 0 || p >= total {
							t.Fatalf("k=%d r=%d m=%d: posComplete(%d)=%d out of range",
								k, r, m, s, p)
						}
						if seen[p] {
							t.Fatalf("k=%d r=%d m=%d: collision at %d", k, r, m, p)
						}
						seen[p] = true
					}
				}
			}
		}
	}
}

// TestBFEqualsCompleteOnPerfectTrees: when the tree is perfect the
// complete-tree map must coincide with Formula 1.
func TestBFEqualsCompleteOnPerfectTrees(t *testing.T) {
	f := func(sRaw uint16, kSel, rSel uint8) bool {
		k := []int{3, 5, 9, 17}[kSel%4]
		r := int(rSel%3) + 1
		cap := pow(k, r) - 1
		s := int(sRaw) % cap
		return posBF(s, k, r) == posComplete(s, k, r, pow(k, r-1))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20000}); err != nil {
		t.Fatal(err)
	}
}
