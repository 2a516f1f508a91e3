package segtree

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/bitmask"
	"repro/internal/btree"
	"repro/internal/kary"
)

// configs returns small test configurations covering both layouts and all
// three bitmask evaluators.
func configs() []Config {
	var out []Config
	for _, layout := range kary.Layouts {
		for _, ev := range bitmask.Evaluators {
			out = append(out, Config{LeafCap: 5, BranchCap: 5, Layout: layout, Evaluator: ev})
		}
	}
	return out
}

func TestEmptyTree(t *testing.T) {
	for _, cfg := range configs() {
		tr := New[uint32, int](cfg)
		if tr.Len() != 0 || tr.Height() != 1 {
			t.Fatalf("%+v: len=%d height=%d", cfg, tr.Len(), tr.Height())
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
}

func TestPutGetReplace(t *testing.T) {
	tr := NewDefault[uint64, string]()
	if !tr.Put(5, "five") {
		t.Fatal("new key not reported added")
	}
	if tr.Put(5, "FIVE") {
		t.Fatal("replacement reported added")
	}
	if v, ok := tr.Get(5); !ok || v != "FIVE" {
		t.Fatalf("got %q %v", v, ok)
	}
}

func TestAscendingInsertAllConfigs(t *testing.T) {
	for _, cfg := range configs() {
		tr := New[uint16, int](cfg)
		for i := 0; i < 3000; i++ {
			if !tr.Put(uint16(i), i) {
				t.Fatalf("%+v: put %d", cfg, i)
			}
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		for i := 0; i < 3000; i++ {
			if v, ok := tr.Get(uint16(i)); !ok || v != i {
				t.Fatalf("%+v: get %d -> %d %v", cfg, i, v, ok)
			}
		}
		if _, ok := tr.Get(3000); ok {
			t.Fatalf("%+v: phantom key", cfg)
		}
	}
}

// TestDifferentialAgainstBaselineBTree drives the Seg-Tree and the
// baseline B+-Tree with an identical random operation stream and demands
// identical observable behaviour — the paper's core claim that only the
// inner-node search changes.
func TestDifferentialAgainstBaselineBTree(t *testing.T) {
	for _, cfg := range configs() {
		rng := rand.New(rand.NewSource(51))
		seg := New[uint16, int](cfg)
		base := btree.New[uint16, int](btree.Config{LeafCap: cfg.LeafCap, BranchCap: cfg.BranchCap})
		for op := 0; op < 8000; op++ {
			k := uint16(rng.Intn(1200))
			switch rng.Intn(4) {
			case 0, 1:
				v := rng.Intn(1 << 20)
				if seg.Put(k, v) != base.Put(k, v) {
					t.Fatalf("%+v op %d: put %d disagreement", cfg, op, k)
				}
			case 2:
				if seg.Delete(k) != base.Delete(k) {
					t.Fatalf("%+v op %d: delete %d disagreement", cfg, op, k)
				}
			default:
				sv, sok := seg.Get(k)
				bv, bok := base.Get(k)
				if sok != bok || (sok && sv != bv) {
					t.Fatalf("%+v op %d: get %d disagreement", cfg, op, k)
				}
			}
			if op%911 == 0 {
				if err := seg.Validate(); err != nil {
					t.Fatalf("%+v op %d: %v", cfg, op, err)
				}
			}
		}
		if seg.Len() != base.Len() {
			t.Fatalf("%+v: len %d vs %d", cfg, seg.Len(), base.Len())
		}
		if err := seg.Validate(); err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		// Full ordered sweep must agree.
		var segKeys, baseKeys []uint16
		seg.Ascend(func(k uint16, _ int) bool { segKeys = append(segKeys, k); return true })
		base.Ascend(func(k uint16, _ int) bool { baseKeys = append(baseKeys, k); return true })
		if len(segKeys) != len(baseKeys) {
			t.Fatalf("%+v: ascend %d vs %d keys", cfg, len(segKeys), len(baseKeys))
		}
		for i := range segKeys {
			if segKeys[i] != baseKeys[i] {
				t.Fatalf("%+v: ascend diverges at %d", cfg, i)
			}
		}
	}
}

func TestDeleteEverything(t *testing.T) {
	cfg := Config{LeafCap: 4, BranchCap: 4, Layout: kary.BreadthFirst, Evaluator: bitmask.Popcount}
	tr := New[uint32, int](cfg)
	const n = 3000
	for _, i := range rand.New(rand.NewSource(52)).Perm(n) {
		tr.Put(uint32(i), i)
	}
	for _, i := range rand.New(rand.NewSource(53)).Perm(n) {
		if !tr.Delete(uint32(i)) {
			t.Fatalf("delete %d failed", i)
		}
	}
	if tr.Len() != 0 || tr.Height() != 1 {
		t.Fatalf("len=%d height=%d", tr.Len(), tr.Height())
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestScan(t *testing.T) {
	for _, cfg := range configs() {
		tr := New[uint32, uint32](cfg)
		for i := uint32(0); i < 600; i += 2 {
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
			t.Fatalf("%+v: scan got %d keys", cfg, len(got))
		}
		got = got[:0]
		tr.Scan(101, 199, func(k, _ uint32) bool { got = append(got, k); return true })
		if len(got) != 49 || got[0] != 102 {
			t.Fatalf("%+v: open scan got %d keys", cfg, len(got))
		}
		count := 0
		tr.Scan(0, 598, func(_, _ uint32) bool { count++; return count < 7 })
		if count != 7 {
			t.Fatalf("early stop: %d", count)
		}
		tr.Scan(10, 5, func(_, _ uint32) bool { t.Fatal("inverted range emitted"); return false })
	}
}

func TestMinMax(t *testing.T) {
	tr := New[int32, int](Config{LeafCap: 4, BranchCap: 4, Layout: kary.DepthFirst, Evaluator: bitmask.Popcount})
	for _, k := range []int32{5, -3, 99, 0, -77, 42, 17, -2, 63} {
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
	for _, cfg := range configs() {
		for _, n := range []int{0, 1, 2, 5, 6, 7, 30, 31, 500, 2000} {
			ks := make([]uint32, n)
			vs := make([]int, n)
			for i := range ks {
				ks[i] = uint32(i * 7)
				vs[i] = i
			}
			tr := BulkLoad[uint32, int](cfg, ks, vs)
			if err := tr.Validate(); err != nil {
				t.Fatalf("%+v n=%d: %v", cfg, n, err)
			}
			if tr.Len() != n {
				t.Fatalf("%+v n=%d: len %d", cfg, n, tr.Len())
			}
			for i, k := range ks {
				if v, ok := tr.Get(k); !ok || v != vs[i] {
					t.Fatalf("%+v n=%d: key %d", cfg, n, k)
				}
			}
			if n > 0 {
				if _, ok := tr.Get(3); ok {
					t.Fatalf("%+v n=%d: phantom", cfg, n)
				}
			}
		}
	}
}

func TestBulkLoadPanicsOnBadInput(t *testing.T) {
	cfg := DefaultConfig[uint32]()
	check := func(fn func()) {
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic")
			}
		}()
		fn()
	}
	check(func() { BulkLoad[uint32, int](cfg, []uint32{2, 1}, []int{0, 0}) })
	check(func() { BulkLoad[uint32, int](cfg, []uint32{1}, nil) })
	check(func() { New[uint32, int](Config{LeafCap: 0, BranchCap: 4}) })
}

func TestStatsAndMemory(t *testing.T) {
	ks := make([]uint64, 1000)
	vs := make([]int, 1000)
	for i := range ks {
		ks[i] = uint64(i)
	}
	cfg := Config{LeafCap: 10, BranchCap: 10, Layout: kary.BreadthFirst, Evaluator: bitmask.Popcount}
	tr := BulkLoad[uint64, int](cfg, ks, vs)
	rep := tr.Shape()
	if rep.Keys != 1000 {
		t.Fatalf("keys %d", rep.Keys)
	}
	if leaves := rep.LevelFill[len(rep.LevelFill)-1].Nodes; leaves != 100 {
		t.Fatalf("leaves %d", leaves)
	}
	if rep.Slots < 1000 {
		t.Fatalf("stored slots %d", rep.Slots)
	}
	if st := tr.IndexStats(); st.MemoryBytes <= 0 || st.Height != tr.Height() {
		t.Fatalf("memory %d height %d", st.MemoryBytes, st.Height)
	}
}

func TestDefaultConfigMatchesTable3(t *testing.T) {
	if c := DefaultConfig[uint8](); c.LeafCap != 254 || c.BranchCap != 254 {
		t.Fatalf("8-bit: %+v", c)
	}
	if c := DefaultConfig[uint16](); c.LeafCap != 404 {
		t.Fatalf("16-bit: %+v", c)
	}
	if c := DefaultConfig[uint32](); c.LeafCap != 338 {
		t.Fatalf("32-bit: %+v", c)
	}
	if c := DefaultConfig[uint64](); c.LeafCap != 242 {
		t.Fatalf("64-bit: %+v", c)
	}
}

func TestQuickDifferential(t *testing.T) {
	cfg := Config{LeafCap: 4, BranchCap: 4, Layout: kary.DepthFirst, Evaluator: bitmask.Popcount}
	f := func(ops []uint8) bool {
		seg := New[uint8, int](cfg)
		ref := map[uint8]int{}
		for i, k := range ops {
			if i%3 == 2 {
				_, existed := ref[k]
				if seg.Delete(k) != existed {
					return false
				}
				delete(ref, k)
			} else {
				seg.Put(k, i)
				ref[k] = i
			}
		}
		if seg.Len() != len(ref) || seg.Validate() != nil {
			return false
		}
		for k, v := range ref {
			got, ok := seg.Get(k)
			if !ok || got != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 800}); err != nil {
		t.Fatal(err)
	}
}

func TestSignedKeys(t *testing.T) {
	tr := New[int64, int](Config{LeafCap: 6, BranchCap: 6, Layout: kary.BreadthFirst, Evaluator: bitmask.Popcount})
	vals := []int64{-1 << 40, -77, -1, 0, 1, 99, 1 << 50}
	for i, k := range vals {
		tr.Put(k, i)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	var got []int64
	tr.Ascend(func(k int64, _ int) bool { got = append(got, k); return true })
	for i := range vals {
		if got[i] != vals[i] {
			t.Fatalf("order mismatch at %d: %v vs %v", i, got[i], vals[i])
		}
	}
}
