package obs

import (
	"expvar"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
)

// This file renders snapshots in the Prometheus text exposition format
// (version 0.0.4, the format every Prometheus server scrapes) and bridges
// them to the standard library's expvar registry. Only the subset of the
// format we emit is implemented — counters and cumulative histograms —
// keeping the module dependency-free.

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

// WriteCounterProm writes one counter metric with optional labels
// (pre-rendered as `k="v",...` without braces; empty for none).
func WriteCounterProm(w io.Writer, name, labels, help string, value uint64) error {
	name = promName(name)
	if help != "" {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n", name, help); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "# TYPE %s counter\n", name); err != nil {
		return err
	}
	if labels != "" {
		labels = "{" + labels + "}"
	}
	_, err := fmt.Fprintf(w, "%s%s %d\n", name, labels, value)
	return err
}

// CounterProm writes the five cost-model counters of a Cost under the
// given name prefix (e.g. prefix "segserve" yields
// segserve_simd_comparisons_total, ...).
func (s Cost) CounterProm(w io.Writer, prefix string) error {
	type row struct {
		name, help string
		value      uint64
	}
	rows := []row{
		{"simd_comparisons_total", "128-bit SIMD compare kernels executed by point lookups", s.SIMDComparisons},
		{"mask_evaluations_total", "comparison bitmask evaluations of point lookups", s.MaskEvaluations},
		{"node_visits_total", "tree nodes visited by point lookups", s.NodeVisits},
		{"levels_descended_total", "k-ary tree levels descended by point lookups", s.LevelsDescended},
		{"scalar_comparisons_total", "scalar key comparisons of point lookups", s.ScalarComparisons},
	}
	for _, r := range rows {
		name := r.name
		if prefix != "" {
			name = prefix + "_" + name
		}
		if err := WriteCounterProm(w, name, "", r.help, r.value); err != nil {
			return err
		}
	}
	return nil
}

// HistogramProm writes the snapshot as a Prometheus histogram in seconds:
// cumulative <name>_bucket{le=...} series up to the highest populated
// bucket, the +Inf bucket, <name>_sum and <name>_count. The extra labels
// (pre-rendered `k="v"` pairs, empty for none) are merged into every
// series, as Prometheus requires for histograms split by label.
func (s HistogramSnapshot) HistogramProm(w io.Writer, name, labels, help string) error {
	return s.histogramProm(w, name, labels, help, nil)
}

// HistogramPromExemplars is HistogramProm plus OpenMetrics exemplars:
// each bucket line whose bucket holds an exemplar gains the
// `# {trace_id="<32 hex>"} <seconds>` suffix, linking the bucket to the
// most recent sampled request that landed in it. Exemplars are indexed
// like Counts (pass WindowedHistogram.Exemplars()). The suffix is
// OpenMetrics syntax; the rest of the line stays Prometheus-text
// compatible, which is how most scrapers accept mixed output.
func (s HistogramSnapshot) HistogramPromExemplars(w io.Writer, name, labels, help string, exemplars [histBuckets]*Exemplar) error {
	return s.histogramProm(w, name, labels, help, &exemplars)
}

func (s HistogramSnapshot) histogramProm(w io.Writer, name, labels, help string, exemplars *[histBuckets]*Exemplar) error {
	name = promName(name)
	if help != "" {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n", name, help); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", name); err != nil {
		return err
	}
	hi := 0
	for i, c := range s.Counts {
		if c != 0 {
			hi = i
		}
	}
	join := func(extra string) string {
		if labels == "" {
			return extra
		}
		return labels + "," + extra
	}
	var cum uint64
	for i := 0; i <= hi; i++ {
		cum += s.Counts[i]
		// Bucket i holds ns < 2^i, i.e. seconds ≤ (2^i − 1)/1e9.
		le := float64(uint64(1)<<uint(i)-1) / 1e9
		exemplar := ""
		if exemplars != nil && exemplars[i] != nil {
			e := exemplars[i]
			// The exemplar's value is the observed latency in seconds; by
			// construction e.NS is inside bucket i, so value ≤ le holds as
			// OpenMetrics requires.
			exemplar = fmt.Sprintf(" # {trace_id=%q} %s",
				e.TraceIDString(), formatFloat(float64(e.NS)/1e9))
		}
		if _, err := fmt.Fprintf(w, "%s_bucket{%s} %d%s\n",
			name, join(fmt.Sprintf("le=%q", formatFloat(le))), cum, exemplar); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_bucket{%s} %d\n", name, join(`le="+Inf"`), s.Count); err != nil {
		return err
	}
	sumLabels := ""
	if labels != "" {
		sumLabels = "{" + labels + "}"
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", name, sumLabels,
		formatFloat(float64(s.SumNanos)/1e9)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", name, sumLabels, s.Count)
	return err
}

func formatFloat(f float64) string {
	return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%.9f", f), "0"), ".")
}

// expvar integration. expvar.Publish panics on duplicate names, so the
// bridge keeps its own registry and republishes a single Func per name —
// re-registering a name replaces its callback instead of panicking, which
// tests and restart paths need.

var (
	expvarMu    sync.Mutex
	expvarFuncs = map[string]func() any{}
)

// PublishExpvar exposes f's result under name in the process-wide expvar
// registry (rendered by /debug/vars). Re-publishing an existing name
// replaces the callback.
func PublishExpvar(name string, f func() any) {
	expvarMu.Lock()
	defer expvarMu.Unlock()
	if _, ok := expvarFuncs[name]; !ok {
		expvar.Publish(name, expvar.Func(func() any {
			expvarMu.Lock()
			g := expvarFuncs[name]
			expvarMu.Unlock()
			if g == nil {
				return nil
			}
			return g()
		}))
	}
	expvarFuncs[name] = f
}

// ExpvarNames returns the names published through PublishExpvar, sorted.
func ExpvarNames() []string {
	expvarMu.Lock()
	defer expvarMu.Unlock()
	names := make([]string, 0, len(expvarFuncs))
	for n := range expvarFuncs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
