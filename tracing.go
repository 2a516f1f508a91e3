package simdtree

import (
	"fmt"

	"repro/internal/trace"
)

// Per-operation tracing surface of the facade: Explain runs one traced
// lookup and returns the exact descent — per level the node visited, its
// linearization layout, the SIMD register loads, the raw comparison
// bitmask, the evaluated position and the branch taken (plus, for the
// Seg-Trie, the partial-key segment and any compressed-prefix skips).
// The trace is produced by the same kernels the untraced search runs, so
// it cannot drift from reality; an untraced call pays one nil check per
// level. For always-on production visibility, InstrumentedIndex can
// sample 1-in-N Gets into ring buffers (EnableSampling) with a slow-op
// log; cmd/segserve serves both over HTTP.

// Trace records one operation's descent: identifying metadata plus an
// ordered list of steps. Render with String or marshal to JSON.
type Trace = trace.Trace

// TraceStep is one recorded event of a descent: a node visit, a SIMD
// register compare, a scalar compare run, a branch, a trie segment, a
// compressed-prefix skip, a fast path or a shard route.
type TraceStep = trace.Step

// TraceKind discriminates the step types of a Trace.
type TraceKind = trace.Kind

// Step kinds.
const (
	TraceNode       = trace.KindNode
	TraceSIMD       = trace.KindSIMD
	TraceScalar     = trace.KindScalar
	TraceBranch     = trace.KindBranch
	TraceSegment    = trace.KindSegment
	TracePrefixSkip = trace.KindPrefixSkip
	TraceFastPath   = trace.KindFastPath
	TraceShard      = trace.KindShard
	TraceProbe      = trace.KindProbe
)

// TraceSampler samples 1-in-N operations into a ring of recent traces
// plus a slow-op ring; rate and latency threshold are runtime-adjustable.
// Obtain one from InstrumentedIndex.EnableSampling.
type TraceSampler = trace.Sampler

// SamplerStats is a point-in-time summary of a TraceSampler.
type SamplerStats = trace.SamplerStats

// Explain performs one traced lookup of key in ix and returns the
// finished trace:
//
//	tr := simdtree.Explain(tree, uint64(42))
//	fmt.Println(tr)                // human-readable descent
//	fmt.Println(tr.SIMDComparisons()) // the paper's cost-model count
//
// It works on every Index in the module, including ShardedIndex and
// InstrumentedIndex wrappers.
func Explain[K Key, V any](ix Index[K, V], key K) *Trace {
	tr := trace.New("get", fmt.Sprint(key))
	_, ok, _ := ix.GetTraced(key, tr)
	tr.Finish(ok)
	return tr
}
