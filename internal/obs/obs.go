// Package obs is the observability layer: the cost values of the
// quantities the paper's evaluation argues from (SIMD comparisons per
// lookup, bitmask evaluations, nodes touched, levels descended), sharded
// counters that accumulate them, log-bucketed latency histograms, the
// metric table (metrics.go) that renders them as Prometheus text and as
// /stats lines, and an expvar bridge.
//
// The package sits below every structure package — it imports only the
// standard library plus the leaf helpers internal/pow2 and
// internal/invariants — so internal/kary and the tree packages can all
// return its Cost without import cycles.
//
// Counting holds no global state. Every descent sums its cost into a
// stack-local Cost and returns it with its result (index.Index's
// GetTraced); a caller that wants totals adds the returned value to a
// Counters of its own, which shards the atomic adds per goroutine so
// concurrent lookups do not serialize on one cache line.
package obs

import (
	"sync/atomic"
	"unsafe"
)

// numShards is the number of counter shards; a power of two so the shard
// index is a mask, not a modulo.
const numShards = 32

// shard is one cache line of counters. Five live counters plus padding to
// 64 bytes keep shards on distinct cache lines regardless of how the
// containing array is aligned relative to line boundaries.
type shard struct {
	simd   atomic.Uint64
	mask   atomic.Uint64
	nodes  atomic.Uint64
	levels atomic.Uint64
	scalar atomic.Uint64
	_      [3]uint64
}

// Counters accumulates Costs. The zero value is ready to use. All methods
// are safe for concurrent use; counts are sharded to keep parallel
// searches from contending on one cache line.
type Counters struct {
	shards [numShards]shard
}

// shard picks a shard for the calling goroutine. Goroutine identity is
// approximated by the current stack address: distinct goroutines run on
// distinct stacks, so discarding the low bits (intra-frame offsets) and
// masking yields a stable, well-spread shard index with no allocation and
// no runtime dependence. Collisions only cost contention, never
// correctness.
func (c *Counters) shard() *shard {
	var marker byte
	return &c.shards[(uintptr(unsafe.Pointer(&marker))>>10)&(numShards-1)]
}

// Cost is the paper's §4 cost of one or more searches: what a descent
// returns for its lookup, and what Counters.Read returns for a sum of
// them.
type Cost struct {
	// SIMDComparisons counts 128-bit compare kernels: the paper's §4 cost
	// model unit. A fused compare+equality kernel (one register pair of
	// loads) counts once.
	SIMDComparisons uint64 `json:"simd_comparisons"`
	// MaskEvaluations counts movemask evaluations — one per k-ary level.
	MaskEvaluations uint64 `json:"mask_evaluations"`
	// NodeVisits counts tree nodes searched: one linearized k-ary tree in
	// the Seg-Tree/Seg-Trie, one B+-tree node in the baseline.
	NodeVisits uint64 `json:"node_visits"`
	// LevelsDescended counts k-ary tree levels walked.
	LevelsDescended uint64 `json:"levels_descended"`
	// ScalarComparisons counts non-SIMD key comparisons: binary-search
	// steps in the B+-tree baseline, single-key trie nodes.
	ScalarComparisons uint64 `json:"scalar_comparisons"`
}

// Add accumulates o into c.
func (c *Cost) Add(o Cost) {
	c.SIMDComparisons += o.SIMDComparisons
	c.MaskEvaluations += o.MaskEvaluations
	c.NodeVisits += o.NodeVisits
	c.LevelsDescended += o.LevelsDescended
	c.ScalarComparisons += o.ScalarComparisons
}

// Metrics returns the five counters as table rows (simd_comparisons_total,
// ...), each under its /stats key (simd_comparisons, ...).
func (c Cost) Metrics() []Metric {
	return []Metric{
		{Name: "simd_comparisons_total", Help: "128-bit SIMD compare kernels executed by point lookups",
			Kind: KindCounter, Value: float64(c.SIMDComparisons), Stat: "simd_comparisons"},
		{Name: "mask_evaluations_total", Help: "comparison bitmask evaluations of point lookups",
			Kind: KindCounter, Value: float64(c.MaskEvaluations), Stat: "mask_evaluations"},
		{Name: "node_visits_total", Help: "tree nodes visited by point lookups",
			Kind: KindCounter, Value: float64(c.NodeVisits), Stat: "node_visits"},
		{Name: "levels_descended_total", Help: "k-ary tree levels descended by point lookups",
			Kind: KindCounter, Value: float64(c.LevelsDescended), Stat: "levels_descended"},
		{Name: "scalar_comparisons_total", Help: "scalar key comparisons of point lookups",
			Kind: KindCounter, Value: float64(c.ScalarComparisons), Stat: "scalar_comparisons"},
	}
}

// Add records the cost of one or more searches.
func (c *Counters) Add(o Cost) {
	sh := c.shard()
	sh.simd.Add(o.SIMDComparisons)
	sh.mask.Add(o.MaskEvaluations)
	sh.nodes.Add(o.NodeVisits)
	sh.levels.Add(o.LevelsDescended)
	sh.scalar.Add(o.ScalarComparisons)
}

// Read sums the shards. Concurrent writers may land between shard reads;
// totals are monotone and exact once writers quiesce.
func (c *Counters) Read() Cost {
	var s Cost
	for i := range c.shards {
		sh := &c.shards[i]
		s.SIMDComparisons += sh.simd.Load()
		s.MaskEvaluations += sh.mask.Load()
		s.NodeVisits += sh.nodes.Load()
		s.LevelsDescended += sh.levels.Load()
		s.ScalarComparisons += sh.scalar.Load()
	}
	return s
}

// Reset zeroes every shard.
func (c *Counters) Reset() {
	for i := range c.shards {
		sh := &c.shards[i]
		sh.simd.Store(0)
		sh.mask.Store(0)
		sh.nodes.Store(0)
		sh.levels.Store(0)
		sh.scalar.Store(0)
	}
}
