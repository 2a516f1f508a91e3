package obs

import (
	"strings"
	"testing"
	"time"
)

// TestWritePromGroupsFamilies feeds rows whose families interleave and
// expects one HELP and TYPE per family with its samples together, in
// order of first appearance.
func TestWritePromGroupsFamilies(t *testing.T) {
	var h Histogram
	h.Observe(3)
	s := h.Read()
	rows := []Metric{
		{Name: "lat_seconds", Help: "latency", Kind: KindHistogram, Label: "op", LabelValue: "get", Hist: &s},
		{Name: "hits_total", Help: "hits", Kind: KindCounter, Value: 7},
		{Name: "lat_seconds", Help: "latency", Kind: KindHistogram, Label: "op", LabelValue: "put", Hist: &s},
		{Name: "ratio", Help: "a ratio", Kind: KindGauge, Label: "objective", LabelValue: "x", Value: 0.25},
	}
	var b strings.Builder
	if err := WriteProm(&b, "p", rows); err != nil {
		t.Fatal(err)
	}
	want := `# HELP p_lat_seconds latency
# TYPE p_lat_seconds histogram
p_lat_seconds_bucket{op="get",le="0"} 0
p_lat_seconds_bucket{op="get",le="0.000000001"} 0
p_lat_seconds_bucket{op="get",le="0.000000003"} 1
p_lat_seconds_bucket{op="get",le="+Inf"} 1
p_lat_seconds_sum{op="get"} 0.000000003
p_lat_seconds_count{op="get"} 1
p_lat_seconds_bucket{op="put",le="0"} 0
p_lat_seconds_bucket{op="put",le="0.000000001"} 0
p_lat_seconds_bucket{op="put",le="0.000000003"} 1
p_lat_seconds_bucket{op="put",le="+Inf"} 1
p_lat_seconds_sum{op="put"} 0.000000003
p_lat_seconds_count{op="put"} 1
# HELP p_hits_total hits
# TYPE p_hits_total counter
p_hits_total 7
# HELP p_ratio a ratio
# TYPE p_ratio gauge
p_ratio{objective="x"} 0.25
`
	if b.String() != want {
		t.Errorf("WriteProm =\n%s\nwant\n%s", b.String(), want)
	}
}

// TestWriteText pins the /stats view: only rows with a Stat key, scalars
// as "key value", histograms as count, mean and interpolated quantiles,
// nothing for an empty histogram, and exemplars as comment lines.
func TestWriteText(t *testing.T) {
	var h Histogram
	for i := 0; i < 10; i++ {
		h.Observe(100 * time.Nanosecond) // bucket 7: [64, 128)
	}
	s, empty := h.Read(), HistogramSnapshot{}
	var ex [histBuckets]*Exemplar
	ex[7] = &Exemplar{TraceHi: 1, TraceLo: 2, NS: 100}
	rows := []Metric{
		{Name: "keys", Kind: KindGauge, Value: 42, Stat: "keys"},
		{Name: "hidden", Kind: KindGauge, Value: 1},
		{Name: "lat_seconds", Kind: KindHistogram, Hist: &s, Exemplars: &ex, Stat: "op_get"},
		{Name: "lat_seconds", Kind: KindHistogram, Hist: &empty, Stat: "op_put"},
		{Name: "window_seconds", Kind: KindGauge, Value: 2.5, Stat: "window_seconds"},
	}
	var b strings.Builder
	if err := WriteText(&b, rows); err != nil {
		t.Fatal(err)
	}
	want := `keys 42
op_get_count 10
op_get_mean_ns 100
op_get_p50_ns 96
op_get_p99_ns 127.36
op_get_p999_ns 127.936
# exemplar bucket=7 trace_id=00000000000000010000000000000002 value_ns=100
window_seconds 2.5
`
	if b.String() != want {
		t.Errorf("WriteText =\n%s\nwant\n%s", b.String(), want)
	}
}
