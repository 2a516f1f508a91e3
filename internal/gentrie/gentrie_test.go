package gentrie

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/segtrie"
)

func TestBasicOps(t *testing.T) {
	tr := New[uint32, string]()
	if tr.Levels() != 4 || tr.Len() != 0 {
		t.Fatalf("levels=%d len=%d", tr.Levels(), tr.Len())
	}
	if !tr.Put(7, "seven") || tr.Put(7, "SEVEN") {
		t.Fatal("put semantics")
	}
	if v, ok := tr.Get(7); !ok || v != "SEVEN" {
		t.Fatal("get")
	}
	if _, ok := tr.Get(8); ok {
		t.Fatal("phantom")
	}
	if !tr.Delete(7) || tr.Delete(7) || tr.Len() != 0 {
		t.Fatal("delete")
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDifferentialAgainstSegTrie(t *testing.T) {
	rng := rand.New(rand.NewSource(151))
	gen := New[uint64, int]()
	seg := segtrie.NewDefault[uint64, int]()
	for op := 0; op < 10000; op++ {
		k := rng.Uint64() % 100000
		switch rng.Intn(3) {
		case 0, 1:
			v := rng.Int()
			if gen.Put(k, v) != seg.Put(k, v) {
				t.Fatalf("put %d disagreement", k)
			}
		default:
			if gen.Delete(k) != seg.Delete(k) {
				t.Fatalf("delete %d disagreement", k)
			}
		}
	}
	if gen.Len() != seg.Len() {
		t.Fatalf("len %d vs %d", gen.Len(), seg.Len())
	}
	if err := gen.Validate(); err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 100000; k += 7 {
		gv, gok := gen.Get(k)
		sv, sok := seg.Get(k)
		if gok != sok || (gok && gv != sv) {
			t.Fatalf("get %d disagreement", k)
		}
	}
}

// TestMemoryTradeoff checks the §6 contrast: on sparse data the
// generalized trie's full-fanout nodes cost far more memory than the
// Seg-Trie's replenished 17-ary nodes.
func TestMemoryTradeoff(t *testing.T) {
	rng := rand.New(rand.NewSource(152))
	gen := New[uint64, int]()
	seg := segtrie.NewDefault[uint64, int]()
	for i := 0; i < 5000; i++ {
		k := rng.Uint64() // sparse: almost every key its own path
		gen.Put(k, i)
		seg.Put(k, i)
	}
	gm := gen.Stats().MemoryBytes
	sm := seg.IndexStats().MemoryBytes
	if gm < 4*sm {
		t.Fatalf("expected generalized trie to pay heavily for sparse data: %d vs %d bytes", gm, sm)
	}
}

func TestQuickDifferentialUint16(t *testing.T) {
	f := func(puts []uint16, dels []uint16) bool {
		gen := New[uint16, int]()
		ref := map[uint16]int{}
		for i, k := range puts {
			gen.Put(k, i)
			ref[k] = i
		}
		for _, k := range dels {
			_, existed := ref[k]
			if gen.Delete(k) != existed {
				return false
			}
			delete(ref, k)
		}
		if gen.Len() != len(ref) || gen.Validate() != nil {
			return false
		}
		for k, v := range ref {
			got, ok := gen.Get(k)
			if !ok || got != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func TestEightBitKeys(t *testing.T) {
	tr := New[uint8, int]() // single-level trie
	for i := 0; i < 256; i++ {
		tr.Put(uint8(i), i)
	}
	if tr.Len() != 256 {
		t.Fatalf("len %d", tr.Len())
	}
	for i := 0; i < 256; i++ {
		if v, ok := tr.Get(uint8(i)); !ok || v != i {
			t.Fatalf("key %d", i)
		}
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}
