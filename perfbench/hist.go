package main

import (
	"math"
	"math/bits"
	"sort"
	"time"
)

// subBits sets the histogram resolution: every power of two is split
// into 2^subBits equal buckets, so a bucket is at most 1/128 (0.8 %) of
// its lower edge wide, which bounds a quantile's error. The obs
// package's log2 buckets are too coarse for a benchmark gate: a 30 %
// shift can stay inside one of them.
const subBits = 7

const histBuckets = (64 - subBits) << subBits

// hist is a log-linear latency histogram in nanoseconds. It is not safe
// for concurrent use; each worker records into its own.
type hist struct {
	counts [histBuckets]uint64
	total  uint64
}

func bucketOf(v uint64) int {
	if v < 1<<subBits {
		return int(v)
	}
	shift := bits.Len64(v) - subBits - 1
	return (shift+1)<<subBits + int(v>>uint(shift)) - 1<<subBits
}

// bucketSpan returns the lower edge and the width of bucket i.
func bucketSpan(i int) (lo, width float64) {
	if i < 1<<subBits {
		return float64(i), 1
	}
	shift := uint(i>>subBits - 1)
	return float64(uint64(1<<subBits+i&(1<<subBits-1)) << shift), float64(uint64(1) << shift)
}

func (h *hist) observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.counts[bucketOf(uint64(d))]++
	h.total++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.total += o.total
}

// quantile returns the q-quantile in nanoseconds, or NaN when empty. It
// places each populated bucket's samples at the bucket's midpoint and
// interpolates linearly between the midpoints' cumulative shares
// (Hyndman and Fan's definition 5, over buckets). Empty buckets are
// skipped, so a quantile moves smoothly with the samples even when the
// clock leaves most buckets empty: time.Now advances in steps of about
// 10 ns on some virtual machines, and a median that could only take
// values on that grid would move in 5 % jumps at 200 ns.
func (h *hist) quantile(q float64) float64 {
	if h.total == 0 {
		return math.NaN()
	}
	target := q * float64(h.total)
	prevX, prevF := math.NaN(), 0.0
	seen := 0.0
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		lo, width := bucketSpan(i)
		x, f := lo+width/2, seen+float64(c)/2
		if f >= target {
			if math.IsNaN(prevX) {
				return x
			}
			return prevX + (x-prevX)*(target-prevF)/(f-prevF)
		}
		prevX, prevF = x, f
		seen += float64(c)
	}
	return prevX
}

// median returns the median of xs, ignoring NaNs; NaN when none remain.
func median(xs []float64) float64 {
	var ys []float64
	for _, x := range xs {
		if !math.IsNaN(x) {
			ys = append(ys, x)
		}
	}
	if len(ys) == 0 {
		return math.NaN()
	}
	sort.Float64s(ys)
	n := len(ys)
	if n%2 == 1 {
		return ys[n/2]
	}
	return (ys[n/2-1] + ys[n/2]) / 2
}
