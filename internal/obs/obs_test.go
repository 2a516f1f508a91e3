package obs

import (
	"expvar"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCountersAccumulateAndReset(t *testing.T) {
	var c Counters
	c.Add(Cost{SIMDComparisons: 3, MaskEvaluations: 7, NodeVisits: 1})
	c.Add(Cost{SIMDComparisons: 2, LevelsDescended: 4, ScalarComparisons: 9})
	s := c.Read()
	want := Cost{
		SIMDComparisons: 5, MaskEvaluations: 7, NodeVisits: 1,
		LevelsDescended: 4, ScalarComparisons: 9,
	}
	if s != want {
		t.Fatalf("Read() = %+v, want %+v", s, want)
	}
	var sum Cost
	sum.Add(Cost{SIMDComparisons: 3, MaskEvaluations: 7, NodeVisits: 1})
	sum.Add(Cost{SIMDComparisons: 2, LevelsDescended: 4, ScalarComparisons: 9})
	if sum != want {
		t.Fatalf("Cost.Add sum = %+v, want %+v", sum, want)
	}
	c.Reset()
	if s := c.Read(); s != (Cost{}) {
		t.Fatalf("after Reset, Read() = %+v, want zero", s)
	}
}

func TestCountersConcurrent(t *testing.T) {
	var c Counters
	const workers, perWorker = 8, 10000
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Add(Cost{SIMDComparisons: 1, NodeVisits: 2})
			}
		}()
	}
	wg.Wait()
	s := c.Read()
	if s.SIMDComparisons != workers*perWorker {
		t.Errorf("SIMDComparisons = %d, want %d", s.SIMDComparisons, workers*perWorker)
	}
	if s.NodeVisits != 2*workers*perWorker {
		t.Errorf("NodeVisits = %d, want %d", s.NodeVisits, 2*workers*perWorker)
	}
}

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	h.Observe(0)                // bucket 0
	h.Observe(1)                // bucket 1: [1,1]
	h.Observe(time.Nanosecond)  // bucket 1
	h.Observe(3)                // bucket 2: [2,3]
	h.Observe(1000)             // bucket 10: [512,1023]
	h.Observe(-time.Nanosecond) // clamped to 0
	s := h.Read()
	if s.Count != 6 {
		t.Fatalf("Count = %d, want 6", s.Count)
	}
	wantBuckets := map[int]uint64{0: 2, 1: 2, 2: 1, 10: 1}
	for i, c := range s.Counts {
		if c != wantBuckets[i] {
			t.Errorf("bucket %d = %d, want %d", i, c, wantBuckets[i])
		}
	}
	if s.SumNanos != 0+1+1+3+1000 {
		t.Errorf("SumNanos = %d, want 1005", s.SumNanos)
	}
	if got := s.Mean(); got != time.Duration(1005/6) {
		t.Errorf("Mean = %v, want %v", got, time.Duration(1005/6))
	}

	// Median of {0,0,1,1,3,1000}: rank 3 lands halfway through bucket 1's
	// two observations, [1, 2).
	if q := s.QuantileNanos(0.5); q != 1.5 {
		t.Errorf("QuantileNanos(0.5) = %g, want 1.5", q)
	}
	// The max quantile is bucket 10's upper edge.
	if q := s.QuantileNanos(1.0); q != 1024 {
		t.Errorf("QuantileNanos(1.0) = %g, want 1024", q)
	}

	h.Reset()
	if s := h.Read(); s.Count != 0 || s.SumNanos != 0 {
		t.Fatalf("after Reset: %+v", s)
	}
}

// TestHistogramObserveN: one weighted observation reads as n equal
// ones — count, bucket, sum and quantiles — so a sampled timer keeps the
// histogram's scale.
func TestHistogramObserveN(t *testing.T) {
	var weighted, repeated Histogram
	weighted.ObserveN(1000, 16)
	weighted.ObserveN(-time.Nanosecond, 16) // clamped to 0
	for i := 0; i < 16; i++ {
		repeated.Observe(1000)
		repeated.Observe(0)
	}
	if w, r := weighted.Read(), repeated.Read(); w != r {
		t.Fatalf("ObserveN snapshot %+v, 16 Observes %+v", w, r)
	}
}

func TestHistogramQuantileEmpty(t *testing.T) {
	var s HistogramSnapshot
	if q := s.QuantileNanos(0.99); q != 0 {
		t.Errorf("empty QuantileNanos = %g, want 0", q)
	}
	if m := s.Mean(); m != 0 {
		t.Errorf("empty Mean = %v, want 0", m)
	}
}

func TestCounterPromFormat(t *testing.T) {
	rows := Cost{SIMDComparisons: 16, NodeVisits: 8}.Metrics()
	var b strings.Builder
	if err := WriteProm(&b, "seg", rows); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE seg_simd_comparisons_total counter",
		"seg_simd_comparisons_total 16",
		"seg_node_visits_total 8",
		"seg_scalar_comparisons_total 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	b.Reset()
	if err := WriteText(&b, rows); err != nil {
		t.Fatal(err)
	}
	if want := "simd_comparisons 16\nmask_evaluations 0\nnode_visits 8\nlevels_descended 0\nscalar_comparisons 0\n"; b.String() != want {
		t.Errorf("WriteText = %q, want %q", b.String(), want)
	}
}

func TestHistogramPromFormat(t *testing.T) {
	var h Histogram
	h.Observe(1)    // bucket 1, le 1e-9
	h.Observe(1000) // bucket 10, le 1023e-9
	s := h.Read()
	var b strings.Builder
	row := Metric{Name: "op latency", Help: "per-op latency", Kind: KindHistogram, Label: "op", LabelValue: "get", Hist: &s}
	if err := WriteProm(&b, "", []Metric{row}); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE op_latency histogram",
		`op_latency_bucket{op="get",le="0"} 0`,
		`op_latency_bucket{op="get",le="0.000000001"} 1`,
		`op_latency_bucket{op="get",le="0.000001023"} 2`,
		`op_latency_bucket{op="get",le="+Inf"} 2`,
		`op_latency_sum{op="get"} 0.000001001`,
		`op_latency_count{op="get"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// Cumulative buckets must be monotone.
	prev := -1
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "op_latency_bucket") {
			continue
		}
		n, err := strconv.Atoi(line[strings.LastIndexByte(line, ' ')+1:])
		if err != nil {
			t.Fatalf("parsing %q: %v", line, err)
		}
		if n < prev {
			t.Errorf("non-monotone cumulative bucket in %q", line)
		}
		prev = n
	}
}

func TestPublishExpvarReplaces(t *testing.T) {
	name := "obs_test_metric"
	PublishExpvar(name, func() any { return 1 })
	PublishExpvar(name, func() any { return 2 }) // must not panic
	v := expvar.Get(name)
	if v == nil {
		t.Fatalf("expvar.Get(%q) = nil", name)
	}
	if got := v.String(); got != "2" {
		t.Errorf("expvar value = %s, want 2", got)
	}
	found := false
	for _, n := range ExpvarNames() {
		if n == name {
			found = true
		}
	}
	if !found {
		t.Errorf("ExpvarNames() missing %q", name)
	}
}

func TestPromNameSanitizes(t *testing.T) {
	if got := promName("9bad name-x"); got != "_bad_name_x" {
		t.Errorf("promName = %q", got)
	}
}
