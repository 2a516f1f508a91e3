package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// histBuckets is one bucket per possible bit length of a nanosecond
// duration: bucket i holds observations with bits.Len64(ns) == i, i.e.
// ns in [2^(i-1), 2^i). Bucket 0 holds exact zeros.
const histBuckets = 65

// Histogram is a lock-free latency histogram with power-of-two buckets.
// The zero value is ready to use; Observe costs one predictable index
// computation and two uncontended-in-the-common-case atomic adds.
type Histogram struct {
	counts [histBuckets]atomic.Uint64
	sum    atomic.Uint64 // total observed nanoseconds
}

// Observe records one duration. Negative durations (clock steps) count as
// zero rather than corrupting the sum.
func (h *Histogram) Observe(d time.Duration) { h.ObserveN(d, 1) }

// ObserveN records d as n observations — one sampled measurement that
// stands for the n operations of its sampling stride.
func (h *Histogram) ObserveN(d time.Duration, n uint64) {
	if d < 0 {
		d = 0
	}
	ns := uint64(d)
	h.counts[bits.Len64(ns)].Add(n)
	h.sum.Add(ns * n)
}

// HistogramSnapshot is a point-in-time copy of a Histogram.
type HistogramSnapshot struct {
	// Counts[i] is the number of observations with bit length i: durations
	// in [2^(i-1), 2^i) nanoseconds (Counts[0] counts exact zeros).
	Counts [histBuckets]uint64 `json:"counts"`
	// Count is the total number of observations.
	Count uint64 `json:"count"`
	// SumNanos is the sum of all observed durations in nanoseconds.
	SumNanos uint64 `json:"sum_nanos"`
}

// Read copies the histogram.
func (h *Histogram) Read() HistogramSnapshot {
	var s HistogramSnapshot
	for i := range h.counts {
		c := h.counts[i].Load()
		s.Counts[i] = c
		s.Count += c
	}
	s.SumNanos = h.sum.Load()
	return s
}

// Reset zeroes the histogram.
func (h *Histogram) Reset() {
	for i := range h.counts {
		h.counts[i].Store(0)
	}
	h.sum.Store(0)
}

// Merge accumulates o into s bucket-wise — the aggregation used when
// several publishers' histograms are reported as one.
func (s *HistogramSnapshot) Merge(o HistogramSnapshot) {
	for i := range s.Counts {
		s.Counts[i] += o.Counts[i]
	}
	s.Count += o.Count
	s.SumNanos += o.SumNanos
}

// Mean returns the average observed duration, or 0 with no observations.
func (s HistogramSnapshot) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return time.Duration(s.SumNanos / s.Count)
}

// QuantileNanos returns the q-quantile (0 ≤ q ≤ 1) of the recorded
// durations in nanoseconds — the estimator behind every p50/p99/p999
// this module reports (the workload driver's per-op results, segserve
// /stats, the SLO engine). The rank q·Count is located in the bucket
// cumulative counts reach it in, and the estimate interpolates linearly
// between the bucket's bounds [2^(i-1), 2^i) by the rank's fraction
// through the bucket's own count. Bucket 0 holds exact zeros, so ranks
// landing there report 0. It returns 0 with no observations.
func (s HistogramSnapshot) QuantileNanos(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	var seen float64
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		fc := float64(c)
		if seen+fc >= rank {
			if i == 0 {
				return 0
			}
			frac := (rank - seen) / fc
			if frac < 0 {
				frac = 0
			}
			lo := float64(uint64(1) << uint(i-1))
			return lo + frac*lo // bucket spans [2^(i-1), 2^i): width == lo
		}
		seen += fc
	}
	// Unreachable when counts are consistent; report the top bucket edge.
	return math.MaxUint64
}
