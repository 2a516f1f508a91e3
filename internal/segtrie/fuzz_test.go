package segtrie

import (
	"slices"
	"testing"

	"repro/internal/keys"
)

// shared is the high-byte pattern every 64-bit fuzz key starts from.
const shared = 0xA5A5A5A5A5A5A5A5

// spread64 turns a fuzz pair into a 64-bit key that keeps shared's bytes
// except at one level, chosen by a, where it is XORed with b. Keys of
// different levels share every byte above the higher of the two, so
// prefixes split at every depth, and deleting keys leaves inner nodes
// with one key that must be spliced into their child.
func spread64(a, b byte) uint64 {
	return shared ^ uint64(b)<<(8*(7-uint(a/3%8)))
}

// FuzzTrieOps drives a fuzzed operation stream through both trie variants
// and a reference map, with 16-bit keys and with 64-bit keys spread by
// spread64, then checks every read against the sorted reference. Each
// byte pair is one operation: the first byte picks Put or Delete.
func FuzzTrieOps(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 128, 1, 64, 200, 255, 7, 7, 135})
	// 64-bit: keys leaving the shared prefix at levels 0, 3, 5 and 7,
	// then deletes (first byte ≡ 2 mod 3) of the level-7 and level-3
	// keys, which leave single-key inner nodes behind.
	f.Add([]byte{0, 1, 9, 4, 15, 6, 21, 2, 21, 3, 9, 5, 23, 2, 11, 4, 0, 0})
	// Runs at the last two levels, then deletes down to one key.
	f.Add([]byte{18, 1, 18, 2, 18, 3, 21, 4, 21, 5, 20, 1, 20, 2, 23, 4, 23, 5})
	f.Fuzz(func(t *testing.T, ops []byte) {
		fuzzOps(t, ops, func(a, b byte) uint16 { return uint16(a)<<8 | uint16(b) },
			NewDefault[uint16, int](), NewOptimizedDefault[uint16, int]())
		fuzzOps(t, ops, spread64,
			NewDefault[uint64, int](), NewOptimizedDefault[uint64, int]())
	})
}

func fuzzOps[K keys.Key](t *testing.T, ops []byte, key func(a, b byte) K, plain, opt *Trie[K, int]) {
	t.Helper()
	tries := map[string]*Trie[K, int]{"trie": plain, "optimized": opt}
	ref := map[K]int{}
	for i := 0; i+1 < len(ops); i += 2 {
		k := key(ops[i], ops[i+1])
		_, existed := ref[k]
		for name, tr := range tries {
			if ops[i]%3 == 2 {
				if tr.Delete(k) != existed {
					t.Fatalf("%s: delete %v", name, k)
				}
			} else if tr.Put(k, i) == existed {
				t.Fatalf("%s: put %v", name, k)
			}
		}
		if ops[i]%3 == 2 {
			delete(ref, k)
		} else {
			ref[k] = i
		}
	}
	sorted := make([]K, 0, len(ref))
	for k := range ref {
		sorted = append(sorted, k)
	}
	slices.Sort(sorted)
	// The scan range comes from the stream's first and last pairs.
	var lo, hi K
	if len(ops) >= 2 {
		lo, hi = key(ops[0], ops[1]), key(ops[len(ops)-2], ops[len(ops)-1])
	}
	var inRange []K
	for _, k := range sorted {
		if lo <= k && k <= hi {
			inRange = append(inRange, k)
		}
	}
	for name, tr := range tries {
		if tr.Len() != len(ref) {
			t.Fatalf("%s: len %d want %d", name, tr.Len(), len(ref))
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for k, v := range ref {
			if got, ok := tr.Get(k); !ok || got != v {
				t.Fatalf("%s: get %v = %v, %v want %v", name, k, got, ok, v)
			}
		}
		if got := collect(t, tr.Ascend, ref); !slices.Equal(got, sorted) {
			t.Fatalf("%s: ascend %v want %v", name, got, sorted)
		}
		scan := func(fn func(K, int) bool) { tr.Scan(lo, hi, fn) }
		if got := collect(t, scan, ref); !slices.Equal(got, inRange) {
			t.Fatalf("%s: scan [%v, %v] = %v want %v", name, lo, hi, got, inRange)
		}
		mk, mv, ok := tr.Min()
		xk, xv, xok := tr.Max()
		if ok != (len(sorted) > 0) || xok != ok {
			t.Fatalf("%s: min/max ok %v/%v with %d keys", name, ok, xok, len(sorted))
		}
		if ok && (mk != sorted[0] || mv != ref[mk] || xk != sorted[len(sorted)-1] || xv != ref[xk]) {
			t.Fatalf("%s: min %v max %v want %v %v", name, mk, xk, sorted[0], sorted[len(sorted)-1])
		}
	}
}

// collect gathers the keys an ordered walk reports, checking each value
// against ref.
func collect[K keys.Key](t *testing.T, walk func(func(K, int) bool), ref map[K]int) []K {
	t.Helper()
	var got []K
	walk(func(k K, v int) bool {
		if want, ok := ref[k]; !ok || v != want {
			t.Fatalf("walk reported %v = %v, want %v (present %v)", k, v, want, ok)
		}
		got = append(got, k)
		return true
	})
	return got
}
