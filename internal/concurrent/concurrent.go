// Package concurrent adds multi-threaded access on top of the index
// structures — the first of the paper's two future-work directions (§7:
// "we will investigate the impact of multi-threading, multi-core, and
// many-core architectures").
//
// Two building blocks are provided. Locked wraps any of the maps in this
// module with a readers-writer lock: searches run concurrently (they are
// pure reads — the SIMD search never mutates node state), updates are
// exclusive. ParallelSearch shards a probe batch over worker goroutines
// against a read-only index, the data-parallel pattern the paper
// anticipates for concurrently used index structures.
//
// Locked serializes every write behind one global lock; for a scalable
// concurrent write path use index.Sharded, which key-range-partitions any
// index.Index across independently locked shards.
package concurrent

import (
	"runtime"
	"sync"

	"repro/internal/index"
	"repro/internal/keys"
)

// Map is the common mutable interface of every index in this module
// (Seg-Tree, Seg-Trie, optimized Seg-Trie, baseline B+-Tree) — the
// index layer's Basic surface.
type Map[K keys.Key, V any] = index.Basic[K, V]

// Locked makes any Map safe for concurrent use: lookups share a read
// lock, mutations take the write lock.
type Locked[K keys.Key, V any] struct {
	mu sync.RWMutex
	m  Map[K, V]
}

// NewLocked wraps m. The caller must not use m directly afterwards.
func NewLocked[K keys.Key, V any](m Map[K, V]) *Locked[K, V] {
	return &Locked[K, V]{m: m}
}

// Get returns the value stored under key, if present.
func (l *Locked[K, V]) Get(key K) (V, bool) {
	l.mu.RLock()
	v, ok := l.m.Get(key)
	l.mu.RUnlock()
	return v, ok
}

// Contains reports whether key is present. The read lock is taken once
// directly (not by delegating through Get), so the underlying structure's
// own Contains fast path runs when it has one.
func (l *Locked[K, V]) Contains(key K) bool {
	l.mu.RLock()
	defer l.mu.RUnlock()
	if c, ok := l.m.(interface{ Contains(K) bool }); ok {
		return c.Contains(key)
	}
	_, ok := l.m.Get(key)
	return ok
}

// GetBatchInto looks up ks into vals and found, in input order, under a
// single read-lock acquisition. When the wrapped map implements the index
// layer's batched lookup its GetBatchInto runs; otherwise the keys are
// probed one by one (index.GetEach), still under the one lock.
func (l *Locked[K, V]) GetBatchInto(ks []K, vals []V, found []bool) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	if b, ok := l.m.(index.Batcher[K, V]); ok {
		b.GetBatchInto(ks, vals, found)
		return
	}
	index.GetEach[K, V](l.m, ks, vals, found)
}

// GetBatch looks up many keys under a single read-lock acquisition:
// GetBatchInto into fresh slices.
func (l *Locked[K, V]) GetBatch(ks []K) ([]V, []bool) { return index.GetBatch[K, V](l, ks) }

// ContainsBatch reports presence for many keys under a single read-lock
// acquisition, in input order.
func (l *Locked[K, V]) ContainsBatch(ks []K) []bool { return index.ContainsBatch[K, V](l, ks) }

// Put stores val under key, returning true when the key was new.
func (l *Locked[K, V]) Put(key K, val V) bool {
	l.mu.Lock()
	added := l.m.Put(key, val)
	l.mu.Unlock()
	return added
}

// Delete removes key, reporting whether it was present.
func (l *Locked[K, V]) Delete(key K) bool {
	l.mu.Lock()
	removed := l.m.Delete(key)
	l.mu.Unlock()
	return removed
}

// Len reports the number of items.
func (l *Locked[K, V]) Len() int {
	l.mu.RLock()
	n := l.m.Len()
	l.mu.RUnlock()
	return n
}

// View runs fn with the read lock held, for multi-step read transactions
// (range scans, iterators) that need a consistent snapshot.
func (l *Locked[K, V]) View(fn func(m Map[K, V])) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	fn(l.m)
}

// Update runs fn with the write lock held, for multi-step mutations.
func (l *Locked[K, V]) Update(fn func(m Map[K, V])) {
	l.mu.Lock()
	defer l.mu.Unlock()
	fn(l.m)
}

// Getter is the read-only face of an index.
type Getter[K keys.Key, V any] = index.Getter[K, V]

// ParallelSearch probes a read-only index from `workers` goroutines
// (0 = GOMAXPROCS) and returns the number of hits. The index must not be
// mutated concurrently; searches themselves are side-effect free, so no
// locking is needed.
func ParallelSearch[K keys.Key, V any](idx Getter[K, V], probes []K, workers int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(probes) {
		workers = 1
	}
	var wg sync.WaitGroup
	hits := make([]int, workers)
	chunk := (len(probes) + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > len(probes) {
			hi = len(probes)
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			h := 0
			for _, p := range probes[lo:hi] {
				if _, ok := idx.Get(p); ok {
					h++
				}
			}
			hits[w] = h
		}(w, lo, hi)
	}
	wg.Wait()
	total := 0
	for _, h := range hits {
		total += h
	}
	return total
}
