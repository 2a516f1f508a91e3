package index

import (
	"fmt"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/keys"
	"repro/internal/obs"
	"repro/internal/shape"
	"repro/internal/trace"
)

// Op identifies one timed operation class of an Instrumented index.
type Op int

const (
	OpGet Op = iota
	OpContains
	OpPut
	OpDelete
	OpGetBatch
	OpContainsBatch
	OpScan
	opCount
)

// String returns the Prometheus label value for the op.
func (o Op) String() string {
	switch o {
	case OpGet:
		return "get"
	case OpContains:
		return "contains"
	case OpPut:
		return "put"
	case OpDelete:
		return "delete"
	case OpGetBatch:
		return "get_batch"
	case OpContainsBatch:
		return "contains_batch"
	case OpScan:
		return "scan"
	default:
		return "unknown"
	}
}

// Ops lists every timed operation class, in label order.
var Ops = [opCount]Op{OpGet, OpContains, OpPut, OpDelete, OpGetBatch, OpContainsBatch, OpScan}

// Instrumented wraps any Index with per-operation latency histograms and
// an obs.Counters summing the paper's cost-model quantities (SIMD
// comparisons, node visits, ...) of the point lookups it serves: every
// Get, Contains and GetTraced adds the cost its descent returns, once.
// Put, Delete, Scan and the batch operations are timed but not counted.
//
// Min/Max/Ascend/Len pass through untimed — they are iteration, not
// lookup, and would only blur the histograms.
//
// The wrapper is as concurrency-safe as the wrapped index: the histograms
// and counters themselves are lock-free, and each index counts only its
// own lookups, however many goroutines share it or its neighbours.
type Instrumented[K keys.Key, V any] struct {
	inner   Index[K, V]
	hists   [opCount]obs.Histogram
	counter obs.Counters
	// sampler, when set, traces 1-in-N Gets into its rings (always-on
	// production tracing); nil means no sampling and zero extra cost.
	sampler atomic.Pointer[trace.Sampler]
	// windows, when set (EnableWindows), additionally records every timed
	// operation into per-op windowed histograms, so recent-window
	// quantiles ("p99 over the last 30 s") are available next to the
	// lifetime figures; nil means one pointer load of extra cost.
	windows atomic.Pointer[opWindows]
}

// opWindows is the attached windowed-histogram set: one ring per op,
// rotated together by RotateWindows.
type opWindows struct {
	tick  time.Duration
	hists [opCount]*obs.WindowedHistogram
}

// NewInstrumented wraps inner.
func NewInstrumented[K keys.Key, V any](inner Index[K, V]) *Instrumented[K, V] {
	return &Instrumented[K, V]{inner: inner}
}

// Compile-time check: Instrumented satisfies the full Index interface.
var _ Index[uint32, int] = (*Instrumented[uint32, int])(nil)

// Unwrap returns the wrapped index.
func (ix *Instrumented[K, V]) Unwrap() Index[K, V] { return ix.inner }

// Counters returns the wrapper's point-lookup cost counters.
func (ix *Instrumented[K, V]) Counters() *obs.Counters { return &ix.counter }

// Histogram returns a snapshot of one operation's latency histogram.
func (ix *Instrumented[K, V]) Histogram(op Op) obs.HistogramSnapshot {
	return ix.hists[op].Read()
}

// observe records the latency of one op that started at start.
func (ix *Instrumented[K, V]) observe(op Op, start time.Time) {
	d := time.Since(start)
	ix.hists[op].Observe(d)
	if w := ix.windows.Load(); w != nil {
		w.hists[op].Observe(d)
	}
}

// EnableWindows attaches (replacing any previous) per-op windowed
// histograms with the given epoch tick and ring size: every timed
// operation is recorded into the current epoch next to the lifetime
// histogram, and WindowSnapshot answers quantiles over trailing windows
// up to epochs·tick. The caller owns rotation: call RotateWindows from
// one goroutine every tick (cmd/segserve runs a ticker; tests rotate
// manually for determinism).
func (ix *Instrumented[K, V]) EnableWindows(tick time.Duration, epochs int) {
	w := &opWindows{tick: tick}
	for i := range w.hists {
		w.hists[i] = obs.NewWindowedHistogram(tick, epochs)
	}
	ix.windows.Store(w)
}

// WindowTick returns the attached windows' epoch tick, or 0 when
// EnableWindows was never called.
func (ix *Instrumented[K, V]) WindowTick() time.Duration {
	if w := ix.windows.Load(); w != nil {
		return w.tick
	}
	return 0
}

// RotateWindows closes the current epoch of every op's windowed
// histogram. Single-owner, like obs.WindowedHistogram.Rotate; a no-op
// when windows are not enabled.
func (ix *Instrumented[K, V]) RotateWindows() {
	if w := ix.windows.Load(); w != nil {
		for _, h := range w.hists {
			h.Rotate()
		}
	}
}

// WindowSnapshot merges the most recent ⌈window/tick⌉ epochs of one op's
// latency into a snapshot; ok is false when windows are not enabled.
func (ix *Instrumented[K, V]) WindowSnapshot(op Op, window time.Duration) (obs.HistogramSnapshot, bool) {
	w := ix.windows.Load()
	if w == nil {
		return obs.HistogramSnapshot{}, false
	}
	return w.hists[op].ReadWindow(window), true
}

// Get implements Index. When sampling is enabled (EnableSampling) the
// selected 1-in-N calls additionally record a full descent trace into the
// sampler's rings; unsampled calls pay one atomic load.
func (ix *Instrumented[K, V]) Get(k K) (V, bool) {
	sp := ix.sampler.Load()
	if !sp.ShouldSample() {
		v, ok, _ := ix.lookup(OpGet, k, nil)
		return v, ok
	}
	tr := trace.New("get", fmt.Sprint(k))
	v, ok, _ := ix.lookup(OpGet, k, tr)
	tr.Finish(ok)
	sp.Record(tr)
	return v, ok
}

// GetTraced implements Index: the descent is recorded into tr, and the
// call is timed and counted as a Get.
func (ix *Instrumented[K, V]) GetTraced(k K, tr *trace.Trace) (V, bool, obs.Cost) {
	return ix.lookup(OpGet, k, tr)
}

// lookup is one timed point lookup whose cost is added to the counters.
func (ix *Instrumented[K, V]) lookup(op Op, k K, tr *trace.Trace) (V, bool, obs.Cost) {
	start := time.Now()
	v, ok, c := ix.inner.GetTraced(k, tr)
	ix.counter.Add(c)
	ix.observe(op, start)
	return v, ok, c
}

// EnableSampling attaches (replacing any previous) a sampler tracing 1 in
// every Gets and flagging sampled operations at or above slowThreshold,
// and returns it. every ≤ 0 leaves the sampler attached but off.
func (ix *Instrumented[K, V]) EnableSampling(every int, slowThreshold time.Duration) *trace.Sampler {
	sp := trace.NewSampler(every, slowThreshold)
	ix.sampler.Store(sp)
	return sp
}

// Sampler returns the attached sampler, or nil when sampling was never
// enabled.
func (ix *Instrumented[K, V]) Sampler() *trace.Sampler { return ix.sampler.Load() }

// Contains implements Index: a counted point lookup.
func (ix *Instrumented[K, V]) Contains(k K) bool {
	_, ok, _ := ix.lookup(OpContains, k, nil)
	return ok
}

// Put implements Index.
func (ix *Instrumented[K, V]) Put(k K, v V) bool {
	start := time.Now()
	fresh := ix.inner.Put(k, v)
	ix.observe(OpPut, start)
	return fresh
}

// Delete implements Index.
func (ix *Instrumented[K, V]) Delete(k K) bool {
	start := time.Now()
	ok := ix.inner.Delete(k)
	ix.observe(OpDelete, start)
	return ok
}

// GetBatchInto implements Index; the whole batch is one GetBatch
// observation.
func (ix *Instrumented[K, V]) GetBatchInto(ks []K, vals []V, found []bool) {
	start := time.Now()
	ix.inner.GetBatchInto(ks, vals, found)
	ix.observe(OpGetBatch, start)
}

// GetBatch implements Index: GetBatchInto into fresh slices.
func (ix *Instrumented[K, V]) GetBatch(ks []K) ([]V, []bool) { return GetBatch[K, V](ix, ks) }

// ContainsBatch implements Index; the whole batch is one observation.
func (ix *Instrumented[K, V]) ContainsBatch(ks []K) []bool {
	start := time.Now()
	oks := ContainsBatch[K, V](ix.inner, ks)
	ix.observe(OpContainsBatch, start)
	return oks
}

// Scan implements Index; one call is one observation regardless of the
// number of items visited.
func (ix *Instrumented[K, V]) Scan(lo, hi K, fn func(K, V) bool) {
	start := time.Now()
	ix.inner.Scan(lo, hi, fn)
	ix.observe(OpScan, start)
}

// Len implements Index (untimed).
func (ix *Instrumented[K, V]) Len() int { return ix.inner.Len() }

// Min implements Index (untimed).
func (ix *Instrumented[K, V]) Min() (K, V, bool) { return ix.inner.Min() }

// Max implements Index (untimed).
func (ix *Instrumented[K, V]) Max() (K, V, bool) { return ix.inner.Max() }

// Ascend implements Index (untimed).
func (ix *Instrumented[K, V]) Ascend(fn func(K, V) bool) { ix.inner.Ascend(fn) }

// IndexStats implements Index (untimed).
func (ix *Instrumented[K, V]) IndexStats() Stats { return ix.inner.IndexStats() }

// Shape implements Index (untimed): the wrapped index's structural
// report, unchanged.
func (ix *Instrumented[K, V]) Shape() shape.Report { return ix.inner.Shape() }

// ReadSnapshot returns a pinned copy-on-write read view of the wrapped
// index when it publishes versions (Versioned, or Sharded over versioned
// shards); ok is false when the wrapped index is not versioned. Reads
// through the returned view bypass the wrapper's histograms — the view
// is the raw lock-free path. The caller must Release it. (The method
// cannot be named Snapshot: that name is taken by the metrics snapshot
// below.)
func (ix *Instrumented[K, V]) ReadSnapshot() (*Snapshot[K, V], bool) {
	if sn, ok := ix.inner.(Snapshotter[K, V]); ok {
		return sn.Snapshot(), true
	}
	return nil, false
}

// MVCCInfo reports the wrapped index's snapshot-publication health when
// it publishes versions; ok is false when it does not.
func (ix *Instrumented[K, V]) MVCCInfo() (obs.MVCCSnapshot, bool) {
	if r, ok := ix.inner.(MVCCReporter); ok {
		return r.MVCCInfo(), true
	}
	return obs.MVCCSnapshot{}, false
}

// OpSnapshot is one operation's latency summary inside a MetricsSnapshot.
type OpSnapshot struct {
	Op        string                `json:"op"`
	Histogram obs.HistogramSnapshot `json:"histogram"`
}

// MetricsSnapshot is a point-in-time view of everything an Instrumented
// index records: per-op latency histograms, the point-lookup cost
// counters and the wrapped index's shape. (The pinned copy-on-write read
// view of an index is the separate Snapshot type — this one is metrics.)
type MetricsSnapshot struct {
	Ops      []OpSnapshot `json:"ops"`
	Counters obs.Cost     `json:"counters"`
	Stats    Stats        `json:"stats"`
	Shape    shape.Report `json:"shape"`
}

// Metrics returns the snapshot as metric-table rows: one
// op_latency_seconds histogram per op (label op=, /stats key op_<op>),
// the point-lookup cost counters, and the index shape as gauges (keys,
// height, nodes, memory_bytes and key_memory_bytes also on /stats, as
// are shape_capacity_fill, which only structures whose nodes have a
// configured capacity report, and the shape_lane_nodes family, one row
// per lane width, which only structures with SIMD nodes report).
func (s MetricsSnapshot) Metrics() []obs.Metric {
	sh := &s.Shape
	gauges := []struct {
		name, help, stat string
		v                float64
	}{
		{"keys", "stored items", "keys", float64(s.Stats.Keys)},
		{"height", "most node searches one lookup performs", "height", float64(s.Stats.Height)},
		{"nodes", "total node count", "nodes", float64(s.Stats.Nodes)},
		{"memory_bytes", "total footprint: keys plus pointers", "memory_bytes", float64(s.Stats.MemoryBytes)},
		{"key_memory_bytes", "key storage, replenishment pads included", "key_memory_bytes", float64(s.Stats.KeyMemoryBytes)},
		{"shape_levels", "height in node searches", "", float64(sh.Levels)},
		{"shape_slot_keys", "real keys across all nodes, separators and partial keys included", "", float64(sh.SlotKeys)},
		{"shape_slots", "allocated key slots, replenishment pads included", "", float64(sh.Slots)},
		{"shape_key_bytes", "storage holding real keys", "", float64(sh.KeyBytes)},
		{"shape_pointer_bytes", "child- and value-pointer storage", "", float64(sh.PointerBytes)},
		{"shape_padding_bytes", "storage holding §3.3 replenishment pads", "", float64(sh.PaddingBytes)},
		{"shape_registers", "16-byte SIMD register loads the key storage linearizes into", "", float64(sh.Registers)},
		{"shape_full_registers", "registers whose every lane holds a real key", "", float64(sh.FullRegisters)},
		{"shape_replenished_slots", "§3.3 replenishment pads", "", float64(sh.ReplenishedSlots)},
		{"shape_omitted_levels", "trie levels compressed into stored prefixes (§4 level omission)", "", float64(sh.OmittedLevels)},
		{"shape_omitted_savings_bytes", "measured byte saving of level omission", "", float64(sh.OmittedSavingsBytes)},
		{"shape_fill_degree", "slot keys over slots: the §6 fill degree", "", sh.FillDegree},
		{"shape_bytes_per_key", "total bytes per stored item", "", sh.BytesPerKey},
		{"shape_register_utilization", "full registers over registers", "", sh.RegisterUtilization},
	}
	rows := make([]obs.Metric, 0, len(gauges)+6+len(s.Ops))
	for _, g := range gauges {
		rows = append(rows, obs.Metric{Name: g.name, Help: g.help, Kind: obs.KindGauge, Value: g.v, Stat: g.stat})
	}
	if sh.Capacity > 0 {
		// Only the B+-Trees' nodes have a configured capacity; elsewhere
		// the figure would read 0, which looks like an empty index.
		rows = append(rows, obs.Metric{Name: "shape_capacity_fill", Help: "slot keys over configured node capacity: the B-Tree fill factor",
			Kind: obs.KindGauge, Value: sh.CapacityFill, Stat: "shape_capacity_fill"})
	}
	if sh.LaneNodes != [len(shape.LaneWidths)]int{} {
		// Only structures that search with SIMD registers have lanes;
		// the baseline would read four zeros.
		for i, w := range shape.LaneWidths {
			rows = append(rows, obs.Metric{Name: "shape_lane_nodes", Help: "nodes searching SIMD lanes of the labelled width in bytes",
				Kind: obs.KindGauge, Label: "width", LabelValue: strconv.Itoa(w), Value: float64(sh.LaneNodes[i]),
				Stat: "shape_lane_nodes_w" + strconv.Itoa(w)})
		}
	}
	rows = append(rows, s.Counters.Metrics()...)
	for i := range s.Ops {
		op := &s.Ops[i]
		rows = append(rows, obs.Metric{Name: "op_latency_seconds", Help: "per-operation latency",
			Kind: obs.KindHistogram, Label: "op", LabelValue: op.Op, Hist: &op.Histogram, Stat: "op_" + op.Op})
	}
	return rows
}

// Snapshot captures the current state of all recorded metrics. The
// structural report is refreshed here — one walk of the wrapped index,
// from which Stats is projected — so every snapshot (and every
// Prometheus scrape) carries current fill and footprint figures.
func (ix *Instrumented[K, V]) Snapshot() MetricsSnapshot {
	sh := ix.inner.Shape()
	s := MetricsSnapshot{Counters: ix.counter.Read(), Stats: StatsOf(sh), Shape: sh}
	for _, op := range Ops {
		s.Ops = append(s.Ops, OpSnapshot{Op: op.String(), Histogram: ix.hists[op].Read()})
	}
	return s
}

// Reset zeroes every histogram and the counters.
func (ix *Instrumented[K, V]) Reset() {
	for i := range ix.hists {
		ix.hists[i].Reset()
	}
	ix.counter.Reset()
}

// PublishExpvar exposes the snapshot under name in the process-wide
// expvar registry (/debug/vars). Republishing the same name replaces the
// callback.
func (ix *Instrumented[K, V]) PublishExpvar(name string) {
	obs.PublishExpvar(name, func() any { return ix.Snapshot() })
}
