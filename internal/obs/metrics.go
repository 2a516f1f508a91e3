package obs

import (
	"bufio"
	"fmt"
	"io"
	"runtime/metrics"
	"strconv"
	"strings"
)

// This file is the metric table: every source of numbers (the cost
// counters, MVCC publication, the Go runtime, the SLO engine, an
// instrumented index, a server's own request counts) returns rows, and
// two renderers turn one table into the two text views a server
// exposes — WriteProm for Prometheus scrapes (text format 0.0.4, plus
// OpenMetrics exemplars on bucket lines) and WriteText for the
// human-readable /stats page. A number added as one row appears in both.

// Kind is the Prometheus type of a metric family.
type Kind string

// The three kinds the table carries; each string is the TYPE line's.
const (
	KindCounter   Kind = "counter"
	KindGauge     Kind = "gauge"
	KindHistogram Kind = "histogram"
)

// Metric is one row of the table: one sample of a metric family.
type Metric struct {
	// Name is the family name without the exposition prefix. Rows sharing
	// a Name form one family and must differ in LabelValue.
	Name string
	Help string
	Kind Kind
	// Label and LabelValue are the row's optional label pair; an empty
	// Label means none.
	Label, LabelValue string
	// Value is the sample of a counter or gauge.
	Value float64
	// Hist is the sample of a latency histogram (nanosecond buckets,
	// exposed in seconds); Exemplars, when set, are indexed like its
	// Counts and ride on the matching bucket lines.
	Hist      *HistogramSnapshot
	Exemplars *[histBuckets]*Exemplar
	// runtime is the sample of a runtime/metrics histogram (seconds).
	runtime *metrics.Float64Histogram
	// Stat is the row's /stats key; an empty Stat keeps it off /stats.
	Stat string
}

// WriteProm renders rows in the Prometheus text exposition format, each
// name prefixed with prefix and '_' (none when prefix is empty). Rows
// are grouped by family in order of first appearance: one HELP and one
// TYPE line per family, then all its samples together — the format
// allows a name's metadata only once per scrape.
func WriteProm(w io.Writer, prefix string, rows []Metric) error {
	bw := bufio.NewWriter(w)
	done := make([]bool, len(rows))
	for i := range rows {
		if done[i] {
			continue
		}
		name := rows[i].Name
		if prefix != "" {
			name = prefix + "_" + name
		}
		name = promName(name)
		fmt.Fprintf(bw, "# HELP %s %s\n# TYPE %s %s\n", name, rows[i].Help, name, rows[i].Kind)
		for j := i; j < len(rows); j++ {
			if done[j] || rows[j].Name != rows[i].Name {
				continue
			}
			done[j] = true
			m := &rows[j]
			label := ""
			if m.Label != "" {
				label = m.Label + "=" + strconv.Quote(m.LabelValue)
			}
			if rows[i].Kind == KindHistogram {
				bs, sum, count := m.buckets()
				writeHistogram(bw, name, label, bs, sum, count)
			} else if label != "" {
				fmt.Fprintf(bw, "%s{%s} %s\n", name, label, formatFloat(m.Value))
			} else {
				fmt.Fprintf(bw, "%s %s\n", name, formatFloat(m.Value))
			}
		}
	}
	return bw.Flush()
}

// WriteText renders the rows that carry a Stat key as "key value" lines,
// the /stats view. A histogram prints key_count, key_mean_ns and the
// interpolated key_p50_ns, key_p99_ns and key_p999_ns (QuantileNanos,
// the estimator the workload driver reports client-side), and nothing
// while it is empty. Its exemplars follow as '#' comment lines, which a
// "name number" parser skips.
func WriteText(w io.Writer, rows []Metric) error {
	bw := bufio.NewWriter(w)
	for i := range rows {
		m := &rows[i]
		switch {
		case m.Stat == "":
			continue
		case m.Kind != KindHistogram:
			fmt.Fprintf(bw, "%s %s\n", m.Stat, formatFloat(m.Value))
		case m.Hist != nil && m.Hist.Count > 0:
			h := m.Hist
			fmt.Fprintf(bw, "%s_count %d\n%s_mean_ns %d\n", m.Stat, h.Count, m.Stat, h.Mean().Nanoseconds())
			fmt.Fprintf(bw, "%s_p50_ns %s\n%s_p99_ns %s\n%s_p999_ns %s\n",
				m.Stat, formatFloat(h.QuantileNanos(0.50)),
				m.Stat, formatFloat(h.QuantileNanos(0.99)),
				m.Stat, formatFloat(h.QuantileNanos(0.999)))
		}
		if m.Exemplars != nil {
			for b, ex := range m.Exemplars {
				if ex != nil {
					fmt.Fprintf(bw, "# exemplar bucket=%d trace_id=%s value_ns=%d\n", b, ex.TraceIDString(), ex.NS)
				}
			}
		}
	}
	return bw.Flush()
}

// promBucket is one histogram bucket in exposition form: its inclusive
// upper bound in seconds, its own (not cumulative) count and an optional
// exemplar.
type promBucket struct {
	le float64
	n  uint64
	ex *Exemplar
}

// buckets returns a histogram row in exposition form, with its sum in
// seconds and its total count.
func (m *Metric) buckets() (bs []promBucket, sum float64, count uint64) {
	if m.runtime != nil {
		return runtimeBuckets(m.runtime)
	}
	h := m.Hist
	if h == nil {
		return nil, 0, 0
	}
	// Buckets above the highest populated one fold into +Inf.
	hi := 0
	for i, c := range h.Counts {
		if c != 0 {
			hi = i
		}
	}
	bs = make([]promBucket, hi+1)
	for i := range bs {
		// Bucket i holds ns < 2^i, i.e. seconds ≤ (2^i − 1)/1e9.
		bs[i] = promBucket{le: float64(uint64(1)<<uint(i)-1) / 1e9, n: h.Counts[i]}
		if m.Exemplars != nil {
			bs[i].ex = m.Exemplars[i]
		}
	}
	return bs, float64(h.SumNanos) / 1e9, h.Count
}

// writeHistogram writes one histogram's samples: cumulative
// <name>_bucket{le=...} lines, the +Inf bucket, <name>_sum and
// <name>_count. label (a rendered `k="v"` pair, empty for none) is
// merged into every line. An exemplar's value is the observed latency,
// inside its bucket, so value ≤ le holds as OpenMetrics requires.
func writeHistogram(bw *bufio.Writer, name, label string, bs []promBucket, sum float64, count uint64) {
	join := func(le string) string {
		if label == "" {
			return `le="` + le + `"`
		}
		return label + `,le="` + le + `"`
	}
	var cum uint64
	for _, b := range bs {
		cum += b.n
		fmt.Fprintf(bw, "%s_bucket{%s} %d", name, join(formatFloat(b.le)), cum)
		if b.ex != nil {
			fmt.Fprintf(bw, " # {trace_id=%q} %s", b.ex.TraceIDString(), formatFloat(float64(b.ex.NS)/1e9))
		}
		bw.WriteByte('\n')
	}
	fmt.Fprintf(bw, "%s_bucket{%s} %d\n", name, join("+Inf"), count)
	if label != "" {
		label = "{" + label + "}"
	}
	fmt.Fprintf(bw, "%s_sum%s %s\n%s_count%s %d\n", name, label, formatFloat(sum), name, label, count)
}

// promName sanitizes a metric name: Prometheus names match
// [a-zA-Z_:][a-zA-Z0-9_:]*, so anything else becomes '_'.
func promName(name string) string {
	var b strings.Builder
	for i, r := range name {
		ok := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(i > 0 && r >= '0' && r <= '9')
		if ok {
			b.WriteRune(r)
		} else {
			b.WriteByte('_')
		}
	}
	return b.String()
}

// formatFloat renders every sample and bound: fixed-point to the
// nanosecond (nine decimals), trailing zeros trimmed, so integers print
// without a fraction or exponent.
func formatFloat(f float64) string {
	return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%.9f", f), "0"), ".")
}
