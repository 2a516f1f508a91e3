package main

import (
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"repro/internal/obs"
)

// TestMetricsExposition scrapes a server with every optional source on
// (an SLO engine, MVCC snapshots, one sampled request carrying an
// exemplar) and checks the body is valid Prometheus text: one HELP and
// one TYPE per family ahead of its samples, each family's samples
// together, well-formed cumulative histograms, and float values.
func TestMetricsExposition(t *testing.T) {
	s, err := newServer(serverConfig{structure: "opt-segtrie", shards: 4, preload: 100,
		spanRate: 1, slo: "get_p99<2ms,error_rate<0.01"})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.handler(slog.New(slog.NewTextHandler(io.Discard, nil))))
	defer ts.Close()
	if code, _ := get(t, ts.URL+"/get?key=7"); code != http.StatusOK {
		t.Fatalf("/get = %d", code)
	}
	_, body := get(t, ts.URL+"/metrics")
	if !strings.Contains(body, `# {trace_id="`) {
		t.Fatalf("scrape carries no exemplar:\n%s", body)
	}

	help, typ := map[string]bool{}, map[string]string{}
	done := map[string]bool{} // families whose samples have ended
	cur := ""
	type histSeries struct {
		le, cum float64
		inf     bool
	}
	hists := map[string]*histSeries{}
	counts := map[string]float64{}
	for _, line := range strings.Split(strings.TrimSuffix(body, "\n"), "\n") {
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, _, _ := strings.Cut(rest, " ")
			if help[name] || typ[name] != "" {
				t.Errorf("HELP for %s repeated or after its TYPE", name)
			}
			help[name] = true
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, kind, _ := strings.Cut(rest, " ")
			if typ[name] != "" {
				t.Errorf("second TYPE line for %s", name)
			}
			typ[name] = kind
			continue
		}
		series, rest, _ := strings.Cut(line, " ")
		value, exemplar, hasExemplar := strings.Cut(rest, " # ")
		v, err := strconv.ParseFloat(value, 64)
		if err != nil {
			t.Errorf("value of %q does not parse: %v", line, err)
		}
		if hasExemplar {
			if _, err := strconv.ParseFloat(exemplar[strings.LastIndexByte(exemplar, ' ')+1:], 64); err != nil {
				t.Errorf("exemplar value of %q does not parse: %v", line, err)
			}
		}
		name, labels, _ := strings.Cut(strings.TrimSuffix(series, "}"), "{")
		family, suffix := name, ""
		for _, sfx := range []string{"_bucket", "_sum", "_count"} {
			if base, ok := strings.CutSuffix(name, sfx); ok && typ[base] == "histogram" {
				family, suffix = base, sfx
			}
		}
		if typ[family] == "" || !help[family] {
			t.Errorf("sample %q precedes the HELP and TYPE of %s", line, family)
		}
		if family != cur {
			if done[family] {
				t.Errorf("samples of %s are not contiguous (again at %q)", family, line)
			}
			done[cur], cur = true, family
		}
		if typ[family] != "histogram" {
			continue
		}
		// The series of one histogram: its labels without le.
		var others []string
		le := math.NaN()
		for _, l := range strings.Split(labels, ",") {
			if q, ok := strings.CutPrefix(l, "le="); ok {
				le, _ = strconv.ParseFloat(strings.Trim(q, `"`), 64)
			} else if l != "" {
				others = append(others, l)
			}
		}
		key := family + "{" + strings.Join(others, ",") + "}"
		switch suffix {
		case "_bucket":
			h := hists[key]
			if h == nil {
				h = &histSeries{le: math.Inf(-1)}
				hists[key] = h
			}
			if h.inf || !(le > h.le) || v < h.cum {
				t.Errorf("%s: bucket %q breaks increasing le / cumulative counts", key, line)
			}
			h.le, h.cum, h.inf = le, v, math.IsInf(le, 1)
		case "_count":
			counts[key] = v
		}
	}
	if len(hists) == 0 {
		t.Fatal("no histogram parsed")
	}
	for key, h := range hists {
		if !h.inf || h.cum != counts[key] {
			t.Errorf("%s: last bucket +Inf=%v with %g, _count %g", key, h.inf, h.cum, counts[key])
		}
	}
}

// TestStatsMetricsParity renders /stats and /metrics from one quiescent
// server — the handlers are called directly, outside the request
// counting, so neither render moves a number the other reads — and
// checks every /stats number against its row's /metrics sample.
func TestStatsMetricsParity(t *testing.T) {
	s, ts := newTestServer(t)
	for _, path := range []string{"/get?key=7", "/get?key=9999", "/put?key=5&value=x",
		"/getbatch?keys=1,2,3", "/scan?lo=1&hi=9", "/getbatch?keys=" + strings.Repeat("1,", maxBatchKeys)} {
		get(t, ts.URL+path)
	}
	render := func(h http.HandlerFunc) string {
		rec := httptest.NewRecorder()
		h(rec, httptest.NewRequest(http.MethodGet, "/", nil))
		return rec.Body.String()
	}
	stats, metrics := render(s.handleStats), render(s.handleMetrics)
	samples := map[string]float64{}
	for _, line := range strings.Split(metrics, "\n") {
		if series, value, ok := strings.Cut(line, " "); ok && !strings.HasPrefix(line, "#") {
			samples[series], _ = strconv.ParseFloat(strings.Fields(value)[0], 64)
		}
	}
	sample := func(m obs.Metric, suffix string) (float64, bool) {
		series := "segserve_" + m.Name + suffix
		if m.Label != "" {
			series += "{" + m.Label + "=" + strconv.Quote(m.LabelValue) + "}"
		}
		v, ok := samples[series]
		return v, ok
	}
	rows := s.metrics()
	checked := 0
	for _, line := range strings.Split(strings.TrimSuffix(stats, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		key, value, _ := strings.Cut(line, " ")
		got, err := strconv.ParseFloat(value, 64)
		if err != nil {
			t.Errorf("/stats line %q does not parse: %v", line, err)
			continue
		}
		matched := false
		for _, m := range rows {
			if m.Stat == "" {
				continue
			}
			var want float64
			var ok bool
			if m.Kind != obs.KindHistogram {
				if key != m.Stat {
					continue
				}
				want, ok = sample(m, "")
			} else {
				if !strings.HasPrefix(key, m.Stat+"_") {
					continue
				}
				switch strings.TrimPrefix(key, m.Stat+"_") {
				case "count":
					want, ok = sample(m, "_count")
				case "mean_ns":
					sum, _ := sample(m, "_sum")
					n, okN := sample(m, "_count")
					want, ok = math.Floor(math.Round(sum*1e9)/n), okN
				case "p50_ns", "p99_ns", "p999_ns":
					want, ok = got, true // quantiles are /stats-only derivations
				default:
					continue
				}
			}
			matched = true
			if !ok || got != want {
				t.Errorf("/stats %s = %g, /metrics row %s = %g (present %v)", key, got, m.Name, want, ok)
			}
		}
		if !matched {
			t.Errorf("/stats line %q has no row", line)
		}
		checked++
	}
	if checked < 20 {
		t.Errorf("only %d /stats lines checked:\n%s", checked, stats)
	}
}

// TestCapacityFillExported preloads a Seg-Tree server with ascending keys
// and reads the nodes' fill against their configured capacity from
// /stats and /metrics: appends fill each leaf before starting the next,
// so the figure is close to 1. A Seg-Trie's nodes have no configured
// capacity, so its server exports no such figure.
func TestCapacityFillExported(t *testing.T) {
	s, err := newServer(serverConfig{structure: "segtree", shards: 1, preload: 5000})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.mux())
	defer ts.Close()
	_, stats := get(t, ts.URL+"/stats")
	var fill float64
	for _, line := range strings.Split(stats, "\n") {
		if v, ok := strings.CutPrefix(line, "shape_capacity_fill "); ok {
			fill, _ = strconv.ParseFloat(v, 64)
		}
	}
	if fill < 0.9 || fill > 1 {
		t.Errorf("/stats shape_capacity_fill = %v, want in [0.9, 1]:\n%s", fill, stats)
	}
	if _, metrics := get(t, ts.URL+"/metrics"); !strings.Contains(metrics, "# TYPE segserve_shape_capacity_fill gauge") {
		t.Errorf("/metrics lacks the segserve_shape_capacity_fill gauge")
	}
	_, trie := newTestServer(t)
	if _, stats := get(t, trie.URL+"/stats"); strings.Contains(stats, "shape_capacity_fill") {
		t.Errorf("a Seg-Trie server's /stats reports shape_capacity_fill:\n%s", stats)
	}
}

// TestLaneNodesExported preloads a Seg-Tree server with consecutive keys
// and reads the shape_lane_nodes family from /stats and /metrics: every
// leaf of dense keys searches 1-byte lanes, and the family has one TYPE
// line and one row per width. A baseline B+-Tree server exports none.
func TestLaneNodesExported(t *testing.T) {
	s, err := newServer(serverConfig{structure: "segtree", shards: 1, preload: 5000})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.mux())
	defer ts.Close()
	_, stats := get(t, ts.URL+"/stats")
	var narrow float64
	for _, line := range strings.Split(stats, "\n") {
		if v, ok := strings.CutPrefix(line, "shape_lane_nodes_w1 "); ok {
			narrow, _ = strconv.ParseFloat(v, 64)
		}
	}
	if narrow < 5000/242 {
		t.Errorf("/stats shape_lane_nodes_w1 = %v, want every leaf of 5,000 dense keys:\n%s", narrow, stats)
	}
	_, metrics := get(t, ts.URL+"/metrics")
	if n := strings.Count(metrics, "# TYPE segserve_shape_lane_nodes gauge"); n != 1 {
		t.Errorf("/metrics has %d TYPE lines for segserve_shape_lane_nodes, want 1", n)
	}
	for _, w := range []string{"1", "2", "4", "8"} {
		if !strings.Contains(metrics, `segserve_shape_lane_nodes{width="`+w+`"} `) {
			t.Errorf("/metrics lacks the width=%s lane-node row", w)
		}
	}
	b, err := newServer(serverConfig{structure: "btree", shards: 1, preload: 100})
	if err != nil {
		t.Fatal(err)
	}
	bs := httptest.NewServer(b.mux())
	defer bs.Close()
	if _, stats := get(t, bs.URL+"/stats"); strings.Contains(stats, "shape_lane_nodes") {
		t.Errorf("a B+-Tree server's /stats reports lane nodes:\n%s", stats)
	}
}
