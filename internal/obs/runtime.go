package obs

import (
	"math"
	"runtime/metrics"
)

// This file bridges the Go runtime's own metrics (runtime/metrics) into
// the metric table, so one /metrics endpoint carries both the paper's
// algorithmic quantities and the runtime context they execute in — heap
// size, GC activity and scheduler latency. Only a fixed, curated subset
// is exported; a metric missing from the running Go version is skipped,
// not an error.

// runtimeMetric maps one runtime/metrics sample onto a table row.
type runtimeMetric struct {
	source string // runtime/metrics name
	suffix string // row name after "go_"
	kind   Kind
	help   string
	// field is the RuntimeSnapshot field a scalar lands in; nil for
	// histograms, which are exposition-only.
	field func(*RuntimeSnapshot) *uint64
}

var runtimeTable = []runtimeMetric{
	{"/memory/classes/heap/objects:bytes", "heap_objects_bytes", KindGauge,
		"bytes occupied by live and unswept heap objects",
		func(s *RuntimeSnapshot) *uint64 { return &s.HeapObjectsBytes }},
	{"/memory/classes/total:bytes", "memory_total_bytes", KindGauge,
		"total bytes mapped by the Go runtime",
		func(s *RuntimeSnapshot) *uint64 { return &s.MemoryTotalBytes }},
	{"/sched/goroutines:goroutines", "goroutines", KindGauge,
		"count of live goroutines",
		func(s *RuntimeSnapshot) *uint64 { return &s.Goroutines }},
	{"/gc/cycles/total:gc-cycles", "gc_cycles_total", KindCounter,
		"completed GC cycles",
		func(s *RuntimeSnapshot) *uint64 { return &s.GCCycles }},
	{"/gc/heap/allocs:bytes", "heap_allocs_bytes_total", KindCounter,
		"cumulative bytes allocated on the heap",
		func(s *RuntimeSnapshot) *uint64 { return &s.HeapAllocsBytes }},
	{"/sched/pauses/total/gc:seconds", "gc_pause_seconds", KindHistogram,
		"distribution of stop-the-world GC pause latencies", nil},
	{"/sched/latencies:seconds", "sched_latency_seconds", KindHistogram,
		"distribution of goroutine scheduling latencies", nil},
}

// RuntimeMetrics samples the curated runtime metrics as table rows named
// go_<suffix> (go_heap_objects_bytes, ...).
func RuntimeMetrics() []Metric {
	samples := make([]metrics.Sample, len(runtimeTable))
	for i, m := range runtimeTable {
		samples[i].Name = m.source
	}
	metrics.Read(samples)
	rows := make([]Metric, 0, len(runtimeTable))
	for i, m := range runtimeTable {
		row := Metric{Name: "go_" + m.suffix, Help: m.help, Kind: m.kind}
		switch v := samples[i].Value; v.Kind() {
		case metrics.KindUint64:
			row.Value = float64(v.Uint64())
		case metrics.KindFloat64:
			row.Value = v.Float64()
		case metrics.KindFloat64Histogram:
			row.runtime = v.Float64Histogram()
		default:
			continue // KindBad: the metric does not exist in this runtime
		}
		rows = append(rows, row)
	}
	return rows
}

// RuntimeSnapshot is a point-in-time copy of the curated scalar runtime
// metrics — the runtime context a diagnostics bundle (the flight
// recorder, internal/health) freezes next to the algorithmic evidence.
// Histogram-kinded runtime metrics are exposition-only and not captured
// here.
type RuntimeSnapshot struct {
	// HeapObjectsBytes is bytes occupied by live and unswept heap objects.
	HeapObjectsBytes uint64 `json:"heap_objects_bytes"`
	// MemoryTotalBytes is total bytes mapped by the Go runtime.
	MemoryTotalBytes uint64 `json:"memory_total_bytes"`
	// Goroutines is the count of live goroutines.
	Goroutines uint64 `json:"goroutines"`
	// GCCycles is completed GC cycles since process start.
	GCCycles uint64 `json:"gc_cycles_total"`
	// HeapAllocsBytes is cumulative bytes allocated on the heap.
	HeapAllocsBytes uint64 `json:"heap_allocs_bytes_total"`
}

// ReadRuntimeSnapshot samples the scalar entries of the curated table. A
// metric missing from the running Go version reads as zero.
func ReadRuntimeSnapshot() RuntimeSnapshot {
	var s RuntimeSnapshot
	var samples []metrics.Sample
	var fields []*uint64
	for _, m := range runtimeTable {
		if m.field != nil {
			samples = append(samples, metrics.Sample{Name: m.source})
			fields = append(fields, m.field(&s))
		}
	}
	metrics.Read(samples)
	for i, f := range fields {
		if samples[i].Value.Kind() == metrics.KindUint64 {
			*f = samples[i].Value.Uint64()
		}
	}
	return s
}

// runtimeBuckets converts a runtime Float64Histogram into exposition
// form. Bucket i of the runtime form covers [Buckets[i], Buckets[i+1]),
// so le is the upper bound; buckets after the last populated one, and an
// unbounded last bucket, fold into +Inf. The runtime does not track the
// exact sum, so it is approximated from bucket midpoints (lower bound
// against +Inf, upper bound against -Inf).
func runtimeBuckets(h *metrics.Float64Histogram) (bs []promBucket, sum float64, count uint64) {
	hi := -1
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		hi = i
		count += c
		sum += float64(c) * bucketMid(h.Buckets[i], h.Buckets[i+1])
	}
	for i := 0; i <= hi && !math.IsInf(h.Buckets[i+1], 1); i++ {
		bs = append(bs, promBucket{le: h.Buckets[i+1], n: h.Counts[i]})
	}
	return bs, sum, count
}

// bucketMid estimates a representative value for a histogram bucket.
func bucketMid(lo, hi float64) float64 {
	switch {
	case math.IsInf(lo, -1) && math.IsInf(hi, 1):
		return 0
	case math.IsInf(lo, -1):
		return hi
	case math.IsInf(hi, 1):
		return lo
	default:
		return (lo + hi) / 2
	}
}
