package btree

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/kary"
)

// White-box corruption tests: Validate must catch damaged structure, over
// either key store.

func TestValidateCatchesFutureStamp(t *testing.T)        { validateCatches(t, "future stamp") }
func TestValidateCatchesWrongSize(t *testing.T)          { validateCatches(t, "wrong size") }
func TestValidateCatchesValueCountMismatch(t *testing.T) { validateCatches(t, "value count mismatch") }
func TestValidateCatchesFenceViolation(t *testing.T)     { validateCatches(t, "fence violation") }
func TestValidateCatchesUnevenLeafDepth(t *testing.T)    { validateCatches(t, "uneven leaf depth") }
func TestValidateCatchesOverflowingNode(t *testing.T)    { validateCatches(t, "overflowing node") }
func TestValidateCatchesUnderfullLeaf(t *testing.T)      { validateCatches(t, "underfull leaf") }
func TestValidateCatchesEmptyRightmostLeaf(t *testing.T) { validateCatches(t, "empty rightmost leaf") }

// validateCatches applies the named damage to a small valid tree of each
// key store; Validate must reject every result.
func validateCatches(t *testing.T, damage string) {
	t.Helper()
	damageCaught(t, karySpec[uint32](4, 4, kary.BreadthFirst), damage)
	damageCaught(t, spec[uint32](Config{LeafCap: 4, BranchCap: 4}), damage)
}

func damageCaught[S Stores[uint32], PS Store[uint32, S]](t *testing.T, sp Spec[S], damage string) {
	t.Helper()
	tr := build[uint32, int, S, PS](t, sp, nil, nil)
	for i := 0; i < 64; i++ {
		tr.Put(uint32(i*3), i)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	damages[S, PS]()[damage](tr)
	if err := tr.Validate(); err == nil {
		t.Fatalf("%s: %s accepted", sp.Name, damage)
	}
}

// damages lists, by name, the ways the tests damage a valid tree.
func damages[S Stores[uint32], PS Store[uint32, S]]() map[string]func(*Skeleton[uint32, int, S, PS]) {
	return map[string]func(*Skeleton[uint32, int, S, PS]){
		"future stamp": func(tr *Skeleton[uint32, int, S, PS]) {
			// A node no write of this tree could have stamped yet.
			leaves(tr)[1].gen = tr.gen + 1
		},
		"wrong size": func(tr *Skeleton[uint32, int, S, PS]) {
			tr.size++
		},
		"value count mismatch": func(tr *Skeleton[uint32, int, S, PS]) {
			first := leaves(tr)[0]
			first.vals = first.vals[:len(first.vals)-1]
		},
		"fence violation": func(tr *Skeleton[uint32, int, S, PS]) {
			// Swap the key sets of two leaves: fences break.
			ls := leaves(tr)
			a, b := ls[0], ls[1]
			ak, bk := a.keys().AppendKeys(nil), b.keys().AppendKeys(nil)
			a.keys().Reset(bk)
			b.keys().Reset(ak)
		},
		"uneven leaf depth": func(tr *Skeleton[uint32, int, S, PS]) {
			// Replace the last child of the root with a leaf (wrong depth).
			leaf := tr.newNode([]uint32{1 << 30})
			leaf.vals = []int{0}
			root := tr.root
			root.children[len(root.children)-1] = leaf
		},
		"underfull leaf": func(tr *Skeleton[uint32, int, S, PS]) {
			// Only the rightmost leaf may hold fewer than LeafCap/2 keys.
			trimLeaf(tr, leaves(tr)[0], 1)
		},
		"empty rightmost leaf": func(tr *Skeleton[uint32, int, S, PS]) {
			ls := leaves(tr)
			trimLeaf(tr, ls[len(ls)-1], 0)
		},
		"overflowing node": func(tr *Skeleton[uint32, int, S, PS]) {
			first := leaves(tr)[0]
			ks := first.keys().AppendKeys(nil)
			for i := 0; i < 10; i++ {
				ks = append(ks, 1000000+uint32(i))
			}
			// Overflow the leaf and fix vals so only the overflow trips.
			first.keys().Reset(ks)
			for i := 0; i < 10; i++ {
				first.vals = append(first.vals, 0)
			}
			tr.size += 10
		},
	}
}

// trimLeaf deletes the leaf's largest keys until it holds keep, keeping
// its values and the size counter consistent.
func trimLeaf[S Stores[uint32], PS Store[uint32, S]](tr *Skeleton[uint32, int, S, PS], l *node[uint32, int, S, PS], keep int) {
	for n := l.keys().Len(); n > keep; n-- {
		l.keys().DeleteAt(n - 1)
		l.vals = l.vals[:n-1]
		tr.size--
	}
}

// TestKeyWidthNodesMatchBuild runs random Puts and Deletes through
// Seg-Tree skeletons of both lane policies and both layouts, then
// compares every node at the key type's width with a fresh Build of its
// keys, the KeyLanes node: same stored slots and the same linearized
// lanes. A node at K's width has base 0, where a lane is the key's own
// realigned bytes, so equal lanes are equal bytes. Every KeyLanes node
// is at K's width; a NarrowLanes tree of full-range keys must have such
// nodes too.
func TestKeyWidthNodesMatchBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, layout := range kary.Layouts {
		for _, sp := range []Spec[kary.Tree[uint64]]{karySpec[uint64](16, 16, layout), narrowSpec[uint64](16, 16, layout)} {
			tr := build[uint64, int, kary.Tree[uint64], *kary.Tree[uint64]](t, sp, nil, nil)
			for i := 0; i < 4000; i++ {
				k := rng.Uint64() >> (rng.Intn(4) * 16) // spans of every lane width
				if rng.Intn(3) == 0 {
					tr.Delete(k)
				} else {
					tr.Put(k, i)
				}
			}
			compared := 0
			var walk func(n *node[uint64, int, kary.Tree[uint64], *kary.Tree[uint64]])
			walk = func(n *node[uint64, int, kary.Tree[uint64], *kary.Tree[uint64]]) {
				ks := n.keys()
				if sp.Empty.Lanes() == kary.KeyLanes && ks.Width() != 8 {
					t.Fatalf("%v: a KeyLanes node at %d-byte lanes", layout, ks.Width())
				}
				if ks.Width() == 8 {
					fresh := kary.Build(ks.Keys(), layout)
					if ks.Stored() != fresh.Stored() || !slices.Equal(ks.Linearized(), fresh.Linearized()) {
						t.Fatalf("%v %v lanes: a key-width node differs from a fresh Build", layout, sp.Empty.Lanes())
					}
					compared++
				}
				for _, c := range n.children {
					walk(c)
				}
			}
			walk(tr.root)
			if compared == 0 {
				t.Fatalf("%v %v lanes: no key-width node compared", layout, sp.Empty.Lanes())
			}
		}
	}
}
