package obs

import (
	"math"
	"testing"
	"time"
)

// TestQuantileNanosInterpolation pins the log2-bucket interpolation on
// hand-computed cases: every value below feeds one bucket whose bounds
// are known, so the interpolated rank position is exact arithmetic.
func TestQuantileNanosInterpolation(t *testing.T) {
	var h Histogram
	for i := 0; i < 10; i++ {
		h.Observe(100 * time.Nanosecond) // bucket 7: [64, 128)
	}
	s := h.Read()
	cases := []struct {
		q    float64
		want float64
	}{
		{0, 64},      // rank 0: lower bucket bound
		{0.5, 96},    // rank 5 of 10: halfway through [64, 128)
		{0.9, 121.6}, // rank 9 of 10
		{1, 128},     // rank 10: upper bucket bound
	}
	for _, c := range cases {
		if got := s.QuantileNanos(c.q); got != c.want {
			t.Errorf("QuantileNanos(%g) = %g, want %g", c.q, got, c.want)
		}
	}
}

func TestQuantileNanosTwoBuckets(t *testing.T) {
	var h Histogram
	for i := 0; i < 50; i++ {
		h.Observe(1 * time.Nanosecond) // bucket 1: [1, 2)
	}
	for i := 0; i < 50; i++ {
		h.Observe(1000 * time.Nanosecond) // bucket 10: [512, 1024)
	}
	s := h.Read()
	// rank 25 of 100: halfway through the first bucket.
	if got := s.QuantileNanos(0.25); got != 1.5 {
		t.Errorf("QuantileNanos(0.25) = %g, want 1.5", got)
	}
	// rank 50 lands exactly on the first bucket's upper edge.
	if got := s.QuantileNanos(0.5); got != 2 {
		t.Errorf("QuantileNanos(0.5) = %g, want 2", got)
	}
	// rank 75: halfway through [512, 1024).
	if got := s.QuantileNanos(0.75); got != 768 {
		t.Errorf("QuantileNanos(0.75) = %g, want 768", got)
	}
}

func TestQuantileNanosZerosAndEmpty(t *testing.T) {
	var h Histogram
	if got := h.Read().QuantileNanos(0.99); got != 0 {
		t.Errorf("empty QuantileNanos = %g, want 0", got)
	}
	for i := 0; i < 5; i++ {
		h.Observe(0)
	}
	if got := h.Read().QuantileNanos(0.99); got != 0 {
		t.Errorf("all-zero QuantileNanos = %g, want 0", got)
	}
	// Out-of-range q clamps rather than misbehaving.
	h.Observe(100 * time.Nanosecond)
	s := h.Read()
	if got := s.QuantileNanos(-1); got != 0 {
		t.Errorf("QuantileNanos(-1) = %g, want 0", got)
	}
	if got, want := s.QuantileNanos(2), s.QuantileNanos(1); got != want {
		t.Errorf("QuantileNanos(2) = %g, want %g", got, want)
	}
}

// TestQuantileNanosSingleObservation pins the count=1 edge: every
// quantile must interpolate inside the lone bucket.
func TestQuantileNanosSingleObservation(t *testing.T) {
	var h Histogram
	h.Observe(100 * time.Nanosecond) // bucket [64, 128)
	s := h.Read()
	for _, q := range []float64{0.01, 0.5, 0.99, 0.999, 1} {
		if got := s.QuantileNanos(q); got < 64 || got > 128 {
			t.Errorf("QuantileNanos(%g) = %g, want within [64, 128]", q, got)
		}
	}
}

// TestQuantileNanosTopBucketSaturation pins the other end: the largest
// representable duration lands in bucket 63 ([2^62, 2^63)) and the
// estimator stays finite there.
func TestQuantileNanosTopBucketSaturation(t *testing.T) {
	var h Histogram
	for i := 0; i < 3; i++ {
		h.Observe(time.Duration(math.MaxInt64))
	}
	s := h.Read()
	for _, q := range []float64{0.5, 0.999, 1} {
		got := s.QuantileNanos(q)
		if math.IsNaN(got) || math.IsInf(got, 0) {
			t.Fatalf("saturated QuantileNanos(%g) = %g, want finite", q, got)
		}
		if got < math.Exp2(62) || got > math.Exp2(63) {
			t.Errorf("saturated QuantileNanos(%g) = %g, want within [2^62, 2^63]", q, got)
		}
	}
}

// TestQuantileNanosMonotone checks the estimator is monotone in q over a
// spread of buckets — the property the p50 ≤ p99 ≤ p999 reporting relies
// on.
func TestQuantileNanosMonotone(t *testing.T) {
	var h Histogram
	for ns := 1; ns < 1<<20; ns *= 3 {
		for i := 0; i < 7; i++ {
			h.Observe(time.Duration(ns))
		}
	}
	s := h.Read()
	prev := -1.0
	for q := 0.0; q <= 1.0; q += 0.01 {
		cur := s.QuantileNanos(q)
		if cur < prev {
			t.Fatalf("QuantileNanos(%g) = %g < previous %g", q, cur, prev)
		}
		prev = cur
	}
}
