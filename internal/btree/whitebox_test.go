package btree

import (
	"testing"

	"repro/internal/kary"
)

// White-box corruption tests: Validate must catch damaged structure, over
// either key store.

func TestValidateCatchesBrokenLeafChain(t *testing.T)    { validateCatches(t, "broken leaf chain") }
func TestValidateCatchesWrongSize(t *testing.T)          { validateCatches(t, "wrong size") }
func TestValidateCatchesValueCountMismatch(t *testing.T) { validateCatches(t, "value count mismatch") }
func TestValidateCatchesFenceViolation(t *testing.T)     { validateCatches(t, "fence violation") }
func TestValidateCatchesUnevenLeafDepth(t *testing.T)    { validateCatches(t, "uneven leaf depth") }
func TestValidateCatchesOverflowingNode(t *testing.T)    { validateCatches(t, "overflowing node") }

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
		"broken leaf chain": func(tr *Skeleton[uint32, int, S, PS]) {
			tr.first.next = tr.first.next.next // skip a leaf
		},
		"wrong size": func(tr *Skeleton[uint32, int, S, PS]) {
			tr.size++
		},
		"value count mismatch": func(tr *Skeleton[uint32, int, S, PS]) {
			tr.first.vals = tr.first.vals[:len(tr.first.vals)-1]
		},
		"fence violation": func(tr *Skeleton[uint32, int, S, PS]) {
			// Swap the key sets of two leaves: fences break.
			a, b := tr.first, tr.first.next
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
		"overflowing node": func(tr *Skeleton[uint32, int, S, PS]) {
			ks := tr.first.keys().AppendKeys(nil)
			for i := 0; i < 10; i++ {
				ks = append(ks, 1000000+uint32(i))
			}
			// Overflow the leaf and fix vals so only the overflow trips.
			tr.first.keys().Reset(ks)
			for i := 0; i < 10; i++ {
				tr.first.vals = append(tr.first.vals, 0)
			}
			tr.size += 10
		},
	}
}
