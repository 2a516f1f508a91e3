package btree

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// small returns a config that forces deep trees in tests.
func small() Config { return Config{LeafCap: 4, BranchCap: 4} }

func TestEmptyTree(t *testing.T) {
	tr := New[uint32, int](small())
	if tr.Len() != 0 || tr.Height() != 1 {
		t.Fatalf("len=%d height=%d", tr.Len(), tr.Height())
	}
	if _, ok := tr.Get(3); ok {
		t.Fatal("Get on empty")
	}
	if _, _, ok := tr.Min(); ok {
		t.Fatal("Min on empty")
	}
	if _, _, ok := tr.Max(); ok {
		t.Fatal("Max on empty")
	}
	if tr.Delete(3) {
		t.Fatal("Delete on empty")
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPutGetReplace(t *testing.T) {
	tr := New[uint32, string](small())
	if !tr.Put(5, "five") {
		t.Fatal("new key not reported added")
	}
	if tr.Put(5, "FIVE") {
		t.Fatal("replacement reported added")
	}
	if v, ok := tr.Get(5); !ok || v != "FIVE" {
		t.Fatalf("got %q %v", v, ok)
	}
	if tr.Len() != 1 {
		t.Fatalf("len %d", tr.Len())
	}
}

func TestInsertAscendingAndDescending(t *testing.T) {
	for name, order := range map[string]func(i int) uint32{
		"ascending":  func(i int) uint32 { return uint32(i) },
		"descending": func(i int) uint32 { return uint32(9999 - i) },
	} {
		tr := New[uint32, int](small())
		for i := 0; i < 10000; i++ {
			tr.Put(order(i), i)
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if tr.Len() != 10000 {
			t.Fatalf("%s: len %d", name, tr.Len())
		}
		for i := 0; i < 10000; i++ {
			if _, ok := tr.Get(order(i)); !ok {
				t.Fatalf("%s: missing %d", name, order(i))
			}
		}
	}
}

func TestRandomOperationsAgainstMap(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	tr := New[uint16, int](small())
	ref := map[uint16]int{}
	for op := 0; op < 30000; op++ {
		k := uint16(rng.Intn(2000))
		switch rng.Intn(3) {
		case 0, 1:
			v := rng.Int()
			added := tr.Put(k, v)
			_, existed := ref[k]
			if added == existed {
				t.Fatalf("op %d: put %d added=%v existed=%v", op, k, added, existed)
			}
			ref[k] = v
		default:
			removed := tr.Delete(k)
			_, existed := ref[k]
			if removed != existed {
				t.Fatalf("op %d: delete %d removed=%v existed=%v", op, k, removed, existed)
			}
			delete(ref, k)
		}
		if op%1000 == 0 {
			if err := tr.Validate(); err != nil {
				t.Fatalf("op %d: %v", op, err)
			}
		}
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != len(ref) {
		t.Fatalf("len %d want %d", tr.Len(), len(ref))
	}
	for k, v := range ref {
		if got, ok := tr.Get(k); !ok || got != v {
			t.Fatalf("key %d: got %d %v want %d", k, got, ok, v)
		}
	}
	// Ascend must emit exactly the reference keys in order.
	var keys []uint16
	tr.Ascend(func(k uint16, _ int) bool {
		keys = append(keys, k)
		return true
	})
	if len(keys) != len(ref) || !sort.SliceIsSorted(keys, func(i, j int) bool { return keys[i] < keys[j] }) {
		t.Fatalf("ascend emitted %d keys", len(keys))
	}
}

func TestDeleteEverything(t *testing.T) {
	tr := New[uint32, int](small())
	const n = 5000
	perm := rand.New(rand.NewSource(42)).Perm(n)
	for _, i := range perm {
		tr.Put(uint32(i), i)
	}
	for _, i := range rand.New(rand.NewSource(43)).Perm(n) {
		if !tr.Delete(uint32(i)) {
			t.Fatalf("delete %d failed", i)
		}
	}
	if tr.Len() != 0 {
		t.Fatalf("len %d after deleting all", tr.Len())
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if tr.Height() != 1 {
		t.Fatalf("height %d after deleting all", tr.Height())
	}
}

func TestScan(t *testing.T) {
	tr := New[uint32, uint32](small())
	for i := uint32(0); i < 1000; i += 2 { // even keys only
		tr.Put(i, i*10)
	}
	var got []uint32
	tr.Scan(100, 200, func(k, v uint32) bool {
		if v != k*10 {
			t.Fatalf("value mismatch at %d", k)
		}
		got = append(got, k)
		return true
	})
	if len(got) != 51 || got[0] != 100 || got[50] != 200 {
		t.Fatalf("scan [100,200]: %d keys, first %v last %v", len(got), got[0], got[len(got)-1])
	}
	// Odd bounds: nothing at the exact endpoints.
	got = got[:0]
	tr.Scan(101, 199, func(k, _ uint32) bool { got = append(got, k); return true })
	if len(got) != 49 || got[0] != 102 || got[48] != 198 {
		t.Fatalf("scan [101,199]: %d keys", len(got))
	}
	// Early termination.
	count := 0
	tr.Scan(0, 998, func(_, _ uint32) bool { count++; return count < 7 })
	if count != 7 {
		t.Fatalf("early stop: %d", count)
	}
	// Inverted range.
	tr.Scan(10, 5, func(_, _ uint32) bool { t.Fatal("inverted range emitted"); return false })
}

func TestMinMax(t *testing.T) {
	tr := New[int32, int](small())
	for _, k := range []int32{5, -3, 99, 0, -77, 42} {
		tr.Put(k, int(k))
	}
	if k, v, ok := tr.Min(); !ok || k != -77 || v != -77 {
		t.Fatalf("min %d %d %v", k, v, ok)
	}
	if k, v, ok := tr.Max(); !ok || k != 99 || v != 99 {
		t.Fatalf("max %d %d %v", k, v, ok)
	}
}

func TestBulkLoad(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 4, 5, 20, 21, 100, 1000, 4999} {
		ks := make([]uint32, n)
		vs := make([]int, n)
		for i := range ks {
			ks[i] = uint32(i * 3)
			vs[i] = i
		}
		tr := BulkLoad[uint32, int](small(), ks, vs)
		if err := tr.Validate(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if tr.Len() != n {
			t.Fatalf("n=%d: len %d", n, tr.Len())
		}
		for i, k := range ks {
			if v, ok := tr.Get(k); !ok || v != vs[i] {
				t.Fatalf("n=%d: key %d", n, k)
			}
		}
		if n > 0 {
			if _, ok := tr.Get(1); ok {
				t.Fatalf("n=%d: phantom key", n)
			}
		}
	}
}

func TestBulkLoadFillsNodesCompletely(t *testing.T) {
	ks := make([]uint32, 4*4*4) // exactly 16 full leaves of 4
	vs := make([]int, len(ks))
	for i := range ks {
		ks[i] = uint32(i)
	}
	tr := BulkLoad[uint32, int](small(), ks, vs)
	rep := tr.Shape()
	if leaves := rep.LevelFill[len(rep.LevelFill)-1]; leaves.Nodes != 16 || leaves.Fill != 1 {
		t.Fatalf("leaves %+v", leaves)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBulkLoadPanicsOnBadInput(t *testing.T) {
	check := func(fn func()) {
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic")
			}
		}()
		fn()
	}
	check(func() { BulkLoad[uint32, int](small(), []uint32{2, 1}, []int{0, 0}) })
	check(func() { BulkLoad[uint32, int](small(), []uint32{1, 1}, []int{0, 0}) })
	check(func() { BulkLoad[uint32, int](small(), []uint32{1}, nil) })
	check(func() { New[uint32, int](Config{LeafCap: 1, BranchCap: 4}) })
}

func TestDefaultConfigMatchesTable3(t *testing.T) {
	if c := DefaultConfig[uint8](); c.LeafCap != 254 {
		t.Fatalf("8-bit N_L %d", c.LeafCap)
	}
	if c := DefaultConfig[uint16](); c.LeafCap != 404 {
		t.Fatalf("16-bit N_L %d", c.LeafCap)
	}
	if c := DefaultConfig[uint32](); c.LeafCap != 338 {
		t.Fatalf("32-bit N_L %d", c.LeafCap)
	}
	if c := DefaultConfig[uint64](); c.LeafCap != 242 {
		t.Fatalf("64-bit N_L %d", c.LeafCap)
	}
}

func TestStats(t *testing.T) {
	ks := make([]uint64, 100)
	vs := make([]int, 100)
	for i := range ks {
		ks[i] = uint64(i)
	}
	tr := BulkLoad[uint64, int](Config{LeafCap: 10, BranchCap: 4}, ks, vs)
	st := tr.IndexStats()
	if st.Keys != 100 {
		t.Fatalf("keys %d", st.Keys)
	}
	rep := tr.Shape()
	if leaves := rep.LevelFill[len(rep.LevelFill)-1].Nodes; leaves != 10 || rep.Nodes == leaves {
		t.Fatalf("leaves %d of %d nodes", leaves, rep.Nodes)
	}
	// Leaf memory alone: 100 keys × (8 key + 8 value pointer).
	if st.MemoryBytes < 1600 {
		t.Fatalf("memory %d", st.MemoryBytes)
	}
	if st.Height != tr.Height() {
		t.Fatal("height mismatch")
	}
}

func TestQuickPutGetDelete(t *testing.T) {
	f := func(ops []uint8) bool {
		tr := New[uint8, int](small())
		ref := map[uint8]int{}
		for i, k := range ops {
			if i%3 == 2 {
				if tr.Delete(k) != (func() bool { _, ok := ref[k]; return ok })() {
					return false
				}
				delete(ref, k)
			} else {
				tr.Put(k, i)
				ref[k] = i
			}
		}
		if tr.Len() != len(ref) || tr.Validate() != nil {
			return false
		}
		for k, v := range ref {
			got, ok := tr.Get(k)
			if !ok || got != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1500}); err != nil {
		t.Fatal(err)
	}
}
