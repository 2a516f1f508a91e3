package obs

import (
	"math/bits"
	"strings"
	"testing"
	"time"
)

func TestObserveExemplar(t *testing.T) {
	w := NewWindowedHistogram(time.Second, 4)
	d := 300 * time.Microsecond
	w.ObserveExemplar(d, 0xabc, 0xdef)

	bucket := bits.Len64(uint64(d))
	e := w.BucketExemplar(bucket)
	if e == nil {
		t.Fatalf("no exemplar in bucket %d", bucket)
	}
	if e.TraceHi != 0xabc || e.TraceLo != 0xdef || e.NS != uint64(d) {
		t.Errorf("exemplar = %+v", e)
	}
	if got := e.TraceIDString(); got != "0000000000000abc0000000000000def" {
		t.Errorf("TraceIDString = %s", got)
	}
	// The observation itself still lands in the window.
	if s := w.ReadWindow(time.Second); s.Count != 1 {
		t.Errorf("window count = %d", s.Count)
	}

	// Newer sampled observation in the same bucket replaces the exemplar.
	w.ObserveExemplar(d+time.Microsecond, 0x111, 0x222)
	if e := w.BucketExemplar(bucket); e == nil || e.TraceHi != 0x111 {
		t.Errorf("exemplar not replaced: %+v", e)
	}

	// Exemplars survive rotation (they are breadcrumbs, not window stats).
	w.Rotate()
	w.Rotate()
	if w.BucketExemplar(bucket) == nil {
		t.Error("exemplar lost on rotation")
	}
}

func TestObserveExemplarZeroTraceSkipped(t *testing.T) {
	w := NewWindowedHistogram(time.Second, 4)
	w.ObserveExemplar(time.Millisecond, 0, 0)
	if s := w.ReadWindow(time.Second); s.Count != 1 {
		t.Errorf("observation lost: count = %d", s.Count)
	}
	for _, e := range w.Exemplars() {
		if e != nil {
			t.Fatalf("zero trace ID recorded an exemplar: %+v", e)
		}
	}
}

func TestBucketExemplarBounds(t *testing.T) {
	w := NewWindowedHistogram(time.Second, 4)
	if w.BucketExemplar(-1) != nil || w.BucketExemplar(histBuckets) != nil {
		t.Error("out-of-range bucket returned an exemplar")
	}
}

func TestHistogramPromExemplars(t *testing.T) {
	w := NewWindowedHistogram(time.Second, 4)
	w.Observe(100 * time.Nanosecond) // unsampled: no exemplar on its bucket
	d := 5 * time.Millisecond
	w.ObserveExemplar(d, 0x4bf92f3577b34da6, 0xa3ce929d0e0e4736)

	var b strings.Builder
	s := w.ReadWindow(time.Second)
	ex := w.Exemplars()
	row := Metric{Name: "req_latency_seconds", Help: "request latency", Kind: KindHistogram,
		Label: "tier", LabelValue: "segserve", Hist: &s, Exemplars: &ex}
	if err := WriteProm(&b, "", []Metric{row}); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, `# {trace_id="4bf92f3577b34da6a3ce929d0e0e4736"}`) {
		t.Errorf("no exemplar rendered:\n%s", out)
	}
	// The exemplar hangs off exactly one bucket line, with value ≤ le.
	var exLine string
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "# {") {
			if exLine != "" {
				t.Fatalf("multiple exemplar lines:\n%s", out)
			}
			exLine = line
		}
	}
	if exLine == "" || !strings.HasPrefix(exLine, "req_latency_seconds_bucket{") {
		t.Fatalf("exemplar on wrong line: %q", exLine)
	}
	if !strings.Contains(exLine, "} 0.005") {
		t.Errorf("exemplar value not the observed seconds: %q", exLine)
	}

	// Without exemplars the rendering is exemplar-free and otherwise
	// identical.
	var plain strings.Builder
	row.Exemplars = nil
	if err := WriteProm(&plain, "", []Metric{row}); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(plain.String(), "# {") {
		t.Error("a row without exemplars rendered exemplars")
	}
	stripped := strings.ReplaceAll(out, exLine+"\n", strings.SplitN(exLine, " # ", 2)[0]+"\n")
	if stripped != plain.String() {
		t.Errorf("exemplar variant drifted from plain rendering:\n%s\nvs\n%s", stripped, plain.String())
	}
}
