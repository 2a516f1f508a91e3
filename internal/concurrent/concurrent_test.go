package concurrent

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/btree"
	"repro/internal/segtree"
	"repro/internal/segtrie"
)

// TestLockedMixedWorkload hammers a locked Seg-Tree from several
// goroutines and verifies the final state against a mutex-guarded
// reference map. Run with -race for full effect.
func TestLockedMixedWorkload(t *testing.T) {
	l := NewLocked[uint32, int](segtree.NewDefault[uint32, int]())
	var refMu sync.Mutex
	ref := map[uint32]int{}

	const workers = 8
	const opsPerWorker = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < opsPerWorker; i++ {
				k := uint32(rng.Intn(500))
				switch rng.Intn(3) {
				case 0:
					v := rng.Int()
					// Keep tree and reference in step under one lock
					// scope so they cannot diverge.
					refMu.Lock()
					l.Put(k, v)
					ref[k] = v
					refMu.Unlock()
				case 1:
					refMu.Lock()
					l.Delete(k)
					delete(ref, k)
					refMu.Unlock()
				default:
					l.Get(k) // result is timing-dependent; just must not race
				}
			}
		}(int64(w + 1))
	}
	wg.Wait()

	if l.Len() != len(ref) {
		t.Fatalf("len %d want %d", l.Len(), len(ref))
	}
	for k, v := range ref {
		if got, ok := l.Get(k); !ok || got != v {
			t.Fatalf("key %d: got %d %v want %d", k, got, ok, v)
		}
	}
}

func TestLockedWrapsAllStructures(t *testing.T) {
	maps := []Map[uint64, int]{
		segtree.NewDefault[uint64, int](),
		btree.NewDefault[uint64, int](),
		segtrie.NewDefault[uint64, int](),
		segtrie.NewOptimizedDefault[uint64, int](),
	}
	for i, m := range maps {
		l := NewLocked(m)
		if !l.Put(7, 70) || l.Put(7, 71) {
			t.Fatalf("structure %d: put semantics", i)
		}
		if v, ok := l.Get(7); !ok || v != 71 {
			t.Fatalf("structure %d: get", i)
		}
		if !l.Contains(7) || l.Contains(8) {
			t.Fatalf("structure %d: contains", i)
		}
		if !l.Delete(7) || l.Delete(7) || l.Len() != 0 {
			t.Fatalf("structure %d: delete", i)
		}
	}
}

// TestLockedGetBatch verifies the single-RLock batched lookup: parity
// with per-key Get both for maps with a native batched descent (the
// Seg-Tree) and for maps without one (a plain Go map fallback).
func TestLockedGetBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	tree := segtree.NewDefault[uint32, int]()
	plain := mapIndex{}
	for i := 0; i < 3000; i++ {
		k := rng.Uint32() % 5000
		tree.Put(k, i)
		plain.Put(k, i)
	}
	probes := make([]uint32, 1000)
	for i := range probes {
		probes[i] = rng.Uint32() % 10000
	}
	for name, l := range map[string]*Locked[uint32, int]{
		"native-batcher": NewLocked[uint32, int](tree),
		"get-fallback":   NewLocked[uint32, int](plain),
	} {
		vals, found := l.GetBatch(probes)
		cb := l.ContainsBatch(probes)
		for i, p := range probes {
			wv, wok := l.Get(p)
			if found[i] != wok || (wok && vals[i] != wv) || cb[i] != wok {
				t.Fatalf("%s: batch[%d] key %d: got (%d,%v,%v) want (%d,%v)",
					name, i, p, vals[i], found[i], cb[i], wv, wok)
			}
		}
	}
}

// mapIndex is a Map without GetBatch, to exercise the fallback path.
type mapIndex map[uint32]int

func (m mapIndex) Get(k uint32) (int, bool) { v, ok := m[k]; return v, ok }
func (m mapIndex) Put(k uint32, v int) bool { _, ok := m[k]; m[k] = v; return !ok }
func (m mapIndex) Delete(k uint32) bool     { _, ok := m[k]; delete(m, k); return ok }
func (m mapIndex) Len() int                 { return len(m) }

func TestViewAndUpdate(t *testing.T) {
	l := NewLocked[uint32, int](segtree.NewDefault[uint32, int]())
	l.Update(func(m Map[uint32, int]) {
		for i := uint32(0); i < 100; i++ {
			m.Put(i, int(i))
		}
	})
	sum := 0
	l.View(func(m Map[uint32, int]) {
		for i := uint32(0); i < 100; i++ {
			if v, ok := m.Get(i); ok {
				sum += v
			}
		}
	})
	if sum != 4950 {
		t.Fatalf("sum %d", sum)
	}
}

func TestParallelSearch(t *testing.T) {
	tr := segtree.NewDefault[uint32, int]()
	for i := uint32(0); i < 10000; i += 2 {
		tr.Put(i, int(i))
	}
	probes := make([]uint32, 50000)
	rng := rand.New(rand.NewSource(9))
	for i := range probes {
		probes[i] = uint32(rng.Intn(10000))
	}
	want := 0
	for _, p := range probes {
		if p%2 == 0 {
			want++
		}
	}
	for _, workers := range []int{0, 1, 2, 7, 16} {
		if got := ParallelSearch[uint32, int](tr, probes, workers); got != want {
			t.Fatalf("workers=%d: hits %d want %d", workers, got, want)
		}
	}
	// More workers than probes.
	if got := ParallelSearch[uint32, int](tr, probes[:3], 64); got < 0 || got > 3 {
		t.Fatalf("tiny batch: %d", got)
	}
}
