package obs

import (
	"math"
	"runtime"
	"runtime/metrics"
	"strings"
	"testing"
)

func TestWriteRuntimeProm(t *testing.T) {
	runtime.GC() // populate the GC pause histogram
	var b strings.Builder
	if err := WriteProm(&b, "test", RuntimeMetrics()); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE test_go_heap_objects_bytes gauge",
		"# TYPE test_go_memory_total_bytes gauge",
		"# TYPE test_go_goroutines gauge",
		"# TYPE test_go_gc_cycles_total counter",
		"# TYPE test_go_heap_allocs_bytes_total counter",
		"# TYPE test_go_gc_pause_seconds histogram",
		"test_go_gc_pause_seconds_bucket{le=\"+Inf\"}",
		"test_go_gc_pause_seconds_sum",
		"test_go_gc_pause_seconds_count",
		"# TYPE test_go_sched_latency_seconds histogram",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
	if strings.Contains(out, "Inf ") && !strings.Contains(out, `le="+Inf"`) {
		t.Error("unescaped infinity leaked into a sample value")
	}
	// No prefix: bare row names.
	b.Reset()
	if err := WriteProm(&b, "", RuntimeMetrics()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "# TYPE go_goroutines gauge") {
		t.Error("unprefixed rendering missing bare name")
	}
}

func TestWriteRuntimePromSkipsUnknownMetric(t *testing.T) {
	// A sample the runtime does not know reads as KindBad and must be
	// skipped without error; pin that via the bridge's own table staying
	// valid (every entry must resolve to a real metric on this Go
	// version, or the bridge silently under-reports).
	for _, m := range runtimeTable {
		s := []metrics.Sample{{Name: m.source}}
		metrics.Read(s)
		if s[0].Value.Kind() == metrics.KindBad {
			t.Errorf("table entry %s unknown to this runtime", m.source)
		}
	}
}

func TestBucketMid(t *testing.T) {
	inf := math.Inf(1)
	for _, tc := range []struct{ lo, hi, want float64 }{
		{1, 3, 2},
		{-inf, 5, 5},
		{7, inf, 7},
		{-inf, inf, 0},
	} {
		if got := bucketMid(tc.lo, tc.hi); got != tc.want {
			t.Errorf("bucketMid(%v,%v) = %v, want %v", tc.lo, tc.hi, got, tc.want)
		}
	}
}

func TestReadRuntimeSnapshot(t *testing.T) {
	s := ReadRuntimeSnapshot()
	if s.HeapObjectsBytes == 0 || s.MemoryTotalBytes == 0 || s.Goroutines == 0 || s.HeapAllocsBytes == 0 {
		t.Errorf("runtime snapshot has empty fields: %+v", s)
	}
	// Every scalar of the table lands in a snapshot field, so the bundle
	// and /metrics read the same list.
	for _, m := range runtimeTable {
		if (m.field == nil) != (m.kind == KindHistogram) {
			t.Errorf("table entry %s: kind %s, snapshot field set = %v", m.source, m.kind, m.field != nil)
		}
	}
}
