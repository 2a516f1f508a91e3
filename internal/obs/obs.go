// Package obs is the observability layer: cheap runtime counters for the
// quantities the paper's evaluation argues from (SIMD comparisons per
// lookup, bitmask evaluations, nodes touched, levels descended), plus
// log-bucketed latency histograms and Prometheus/expvar exposition.
//
// The package sits below every structure package — it imports only the
// standard library plus the leaf helpers internal/pow2 and
// internal/invariants — so internal/simd, internal/bitmask, internal/kary
// and the tree packages can all place hooks without import cycles.
//
// Hooks are package-level functions (SIMDComparisons, NodeVisits, ...)
// guarded by one global atomic pointer. When no Counters is enabled the
// hook is a pointer load and a predictable branch; when enabled, counts go
// to a per-goroutine-sharded Counters so concurrent searches do not
// serialize on one cache line.
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

// Counters accumulates the paper's cost-model quantities. The zero value
// is ready to use. All methods are safe for concurrent use; counts are
// sharded to keep parallel searches from contending on one cache line.
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

// AddSIMDComparisons records n 128-bit SIMD compare kernels executed.
func (c *Counters) AddSIMDComparisons(n int) { c.shard().simd.Add(uint64(n)) }

// AddMaskEvals records n comparison-bitmask evaluations (§2.1 Algorithms 1–3).
func (c *Counters) AddMaskEvals(n int) { c.shard().mask.Add(uint64(n)) }

// AddNodeVisits records n tree nodes visited (one linearized k-ary tree in
// the Seg-Tree/Seg-Trie, one B+-tree node in the baseline).
func (c *Counters) AddNodeVisits(n int) { c.shard().nodes.Add(uint64(n)) }

// AddLevelsDescended records n k-ary tree levels descended.
func (c *Counters) AddLevelsDescended(n int) { c.shard().levels.Add(uint64(n)) }

// AddScalarComparisons records n scalar key comparisons (binary-search
// steps in the B+-tree baseline, single-key trie nodes).
func (c *Counters) AddScalarComparisons(n int) { c.shard().scalar.Add(uint64(n)) }

// CounterSnapshot is one consistent-enough read of a Counters: each field
// is the sum of its shards at read time.
type CounterSnapshot struct {
	// SIMDComparisons counts 128-bit compare kernels: the paper's §4 cost
	// model unit. A fused compare+equality kernel (one register pair of
	// loads) counts once.
	SIMDComparisons uint64 `json:"simd_comparisons"`
	// MaskEvaluations counts movemask evaluations — one per k-ary level.
	MaskEvaluations uint64 `json:"mask_evaluations"`
	// NodeVisits counts tree nodes searched.
	NodeVisits uint64 `json:"node_visits"`
	// LevelsDescended counts k-ary tree levels walked.
	LevelsDescended uint64 `json:"levels_descended"`
	// ScalarComparisons counts non-SIMD key comparisons.
	ScalarComparisons uint64 `json:"scalar_comparisons"`
}

// Read sums the shards into a snapshot. Concurrent writers may land
// between shard reads; totals are monotone and exact once writers quiesce.
func (c *Counters) Read() CounterSnapshot {
	var s CounterSnapshot
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

// active is the globally enabled Counters; nil means every hook is a load
// and a not-taken branch.
var active atomic.Pointer[Counters]

// Enable makes c the destination of all hooks and returns the previously
// enabled Counters (nil if none), so callers can save and restore.
func Enable(c *Counters) (prev *Counters) { return active.Swap(c) }

// Disable detaches the enabled Counters and returns it (nil if none).
func Disable() (prev *Counters) { return active.Swap(nil) }

// Active returns the currently enabled Counters, or nil.
func Active() *Counters { return active.Load() }

// The package-level hooks below are what the structure packages call on
// their search paths. Each is small enough to inline at the call site; the
// disabled path is the atomic load and branch only.

// SIMDComparisons records n SIMD compare kernels if counting is enabled.
func SIMDComparisons(n int) {
	if c := active.Load(); c != nil {
		c.AddSIMDComparisons(n)
	}
}

// NodeVisits records n node visits if counting is enabled.
func NodeVisits(n int) {
	if c := active.Load(); c != nil {
		c.AddNodeVisits(n)
	}
}

// NodeSearch records one k-ary node search if counting is enabled: one
// node visit, the k-ary levels it descended, and its SIMD compares, each
// evaluated once into a digit (§4). A node search counts once, at its
// end, instead of once per level.
func NodeSearch(levels, compares int) {
	if c := active.Load(); c != nil {
		c.AddNodeVisits(1)
		c.AddLevelsDescended(levels)
		c.AddSIMDComparisons(compares)
		c.AddMaskEvals(compares)
	}
}

// ScalarComparisons records n scalar comparisons if counting is enabled.
func ScalarComparisons(n int) {
	if c := active.Load(); c != nil {
		c.AddScalarComparisons(n)
	}
}
