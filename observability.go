package simdtree

import (
	"io"
	"time"

	"repro/internal/index"
	"repro/internal/obs"
	"repro/internal/shape"
)

// Observability surface of the facade: the runtime counters behind the
// paper's §4/§5 cost model (SIMD comparisons, node visits, ...), per-op
// latency histograms, and the instrumented index wrapper that exposes
// both, with Prometheus text rendering of its metric rows (see
// cmd/segserve for a complete /metrics server).

// Cost is the paper's §4 cost of one or more lookups: SIMD comparisons,
// bitmask evaluations, node visits, k-ary levels descended and scalar
// comparisons. Every Index's GetTraced returns the cost of its lookup:
//
//	_, _, c := tree.GetTraced(42, nil)
//	fmt.Println(c.SIMDComparisons)
type Cost = obs.Cost

// Counters sums Costs; InstrumentedIndex.Counters holds the total of
// the index's point lookups. The zero value is ready to use; all methods
// are safe for concurrent use.
type Counters = obs.Counters

// HistogramSnapshot is one read of a latency histogram: power-of-two
// nanosecond buckets, total count and sum.
type HistogramSnapshot = obs.HistogramSnapshot

// InstrumentedIndex wraps any Index with per-operation latency histograms
// and the cost counters of its point lookups; it satisfies Index itself. Construct
// with NewInstrumentedIndex, or wrap an existing index with
// WrapInstrumented.
type InstrumentedIndex[K Key, V any] = index.Instrumented[K, V]

// IndexSnapshot is everything an InstrumentedIndex records: per-op
// latency histograms, cost-model counters and the index shape.
type IndexSnapshot = index.MetricsSnapshot

// Metric is one row of the metric table: a counter, gauge or latency
// histogram sample. IndexSnapshot.Metrics returns an index's rows.
type Metric = obs.Metric

// WriteProm renders metric rows in the Prometheus text exposition
// format, each name under prefix, with one HELP and TYPE per family:
//
//	simdtree.WriteProm(os.Stdout, "myindex", ix.Snapshot().Metrics())
func WriteProm(w io.Writer, prefix string, rows []Metric) error {
	return obs.WriteProm(w, prefix, rows)
}

// Op identifies one timed operation class of an InstrumentedIndex.
type Op = index.Op

// Timed operation classes.
const (
	OpGet           = index.OpGet
	OpContains      = index.OpContains
	OpPut           = index.OpPut
	OpDelete        = index.OpDelete
	OpGetBatch      = index.OpGetBatch
	OpContainsBatch = index.OpContainsBatch
	OpScan          = index.OpScan
)

// Ops lists every timed operation class of an InstrumentedIndex, in
// label order — the iteration callers use to read all histograms (or all
// windowed snapshots via InstrumentedIndex.WindowSnapshot).
var Ops = index.Ops

// WindowedHistogram is a ring of epoch latency histograms answering
// recent-window quantiles ("p99 over the last 30 s") next to the
// lifetime figures; InstrumentedIndex.EnableWindows attaches one per op.
// See internal/health for the SLO engine that evaluates burn rates over
// these windows.
type WindowedHistogram = obs.WindowedHistogram

// NewWindowedHistogram returns a histogram windowed over epochs ticks of
// the given duration.
func NewWindowedHistogram(tick time.Duration, epochs int) *WindowedHistogram {
	return obs.NewWindowedHistogram(tick, epochs)
}

// WrapInstrumented wraps an existing index with instrumentation.
func WrapInstrumented[K Key, V any](ix Index[K, V]) *InstrumentedIndex[K, V] {
	return index.NewInstrumented(ix)
}

// ShapeReport is the structural-health summary every Index produces via
// Shape(): per-level fill factors, the key/pointer/padding byte split,
// bytes-per-key, SIMD-register utilization, §3.3 replenishment counts
// and §4 level-omission savings. Render with its String method or
// marshal it as JSON; cmd/segserve serves it at /debug/shape.
type ShapeReport = shape.Report

// ShapeLevelFill is one level's node count and fill inside a
// ShapeReport.
type ShapeLevelFill = shape.LevelFill
