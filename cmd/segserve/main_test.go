package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	simdtree "repro"
	"repro/internal/driver"
	"repro/internal/reqtrace"
	"repro/internal/segclient"
)

func newTestServer(t *testing.T) (*server, *httptest.Server) {
	t.Helper()
	s, err := newServer(serverConfig{structure: "opt-segtrie", shards: 4, preload: 100})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.mux())
	t.Cleanup(ts.Close)
	return s, ts
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestServerEndpoints(t *testing.T) {
	_, ts := newTestServer(t)

	if code, body := get(t, ts.URL+"/get?key=42"); code != 200 || strings.TrimSpace(body) != "42" {
		t.Errorf("/get preloaded = %d %q", code, body)
	}
	if code, _ := get(t, ts.URL+"/get?key=12345"); code != 404 {
		t.Errorf("/get missing = %d, want 404", code)
	}
	if code, _ := get(t, ts.URL+"/get?key=notanumber"); code != 400 {
		t.Errorf("/get bad key = %d, want 400", code)
	}
	if code, _ := get(t, ts.URL+"/put?key=500&value=hello"); code != 200 {
		t.Errorf("/put = %d", code)
	}
	if code, body := get(t, ts.URL+"/get?key=500"); code != 200 || strings.TrimSpace(body) != "hello" {
		t.Errorf("/get after put = %d %q", code, body)
	}
	if code, _ := get(t, ts.URL+"/delete?key=500"); code != 200 {
		t.Errorf("/delete = %d", code)
	}
	if code, _ := get(t, ts.URL+"/get?key=500"); code != 404 {
		t.Errorf("/get after delete = %d, want 404", code)
	}
	code, body := get(t, ts.URL+"/getbatch?keys=1,2,99999")
	if code != 200 {
		t.Fatalf("/getbatch = %d", code)
	}
	for _, want := range []string{"1 1", "2 2", "99999 MISSING"} {
		if !strings.Contains(body, want) {
			t.Errorf("/getbatch body %q missing %q", body, want)
		}
	}
	if code, body := get(t, ts.URL+"/healthz"); code != 200 || !strings.HasPrefix(body, "ok version=") {
		t.Errorf("/healthz = %d %q", code, body)
	}
}

// TestGetBatchKeyLimit covers the /getbatch bound: a list at the limit
// is answered in full, one key over it is refused with 413 before any
// parsing, and an empty list is a bad request.
func TestGetBatchKeyLimit(t *testing.T) {
	_, ts := newTestServer(t)
	list := func(n int) string {
		ks := make([]string, n)
		for i := range ks {
			ks[i] = strconv.Itoa(i)
		}
		return strings.Join(ks, ",")
	}
	code, body := get(t, ts.URL+"/getbatch?keys="+list(maxBatchKeys))
	if code != 200 {
		t.Fatalf("/getbatch with %d keys = %d, want 200", maxBatchKeys, code)
	}
	if lines := strings.Count(body, "\n"); lines != maxBatchKeys {
		t.Errorf("/getbatch with %d keys answered %d lines", maxBatchKeys, lines)
	}
	if !strings.HasPrefix(body, "0 0\n1 1\n") {
		t.Errorf("/getbatch body starts %q", body[:min(len(body), 40)])
	}
	shed := `segserve_shed_total{reason="batch_too_large"} `
	if _, m := get(t, ts.URL+"/metrics"); !strings.Contains(m, shed+"0\n") {
		t.Errorf("/metrics before any refusal lacks %q0", shed)
	}
	// The over-limit list ends in a key that does not parse: the comma
	// count alone must refuse it, and the refusal is counted.
	if code, body := get(t, ts.URL+"/getbatch?keys="+list(maxBatchKeys)+",x"); code != http.StatusRequestEntityTooLarge {
		t.Errorf("/getbatch with %d keys = %d %q, want 413", maxBatchKeys+1, code, body)
	}
	if _, m := get(t, ts.URL+"/metrics"); !strings.Contains(m, shed+"1\n") {
		t.Errorf("/metrics after one refusal lacks %q1", shed)
	}
	if code, _ := get(t, ts.URL+"/getbatch?keys="); code != http.StatusBadRequest {
		t.Errorf("/getbatch with empty keys= = %d, want 400", code)
	}
	if code, _ := get(t, ts.URL+"/getbatch"); code != http.StatusBadRequest {
		t.Errorf("/getbatch without keys = %d, want 400", code)
	}
}

// TestVersionObservability covers the write-progress surface: the MVCC
// version number in /healthz and /stats advances with writes, and
// /debug/snapshot reports the full publication state.
func TestVersionObservability(t *testing.T) {
	_, ts := newTestServer(t)

	version := func() uint64 {
		t.Helper()
		code, body := get(t, ts.URL+"/healthz")
		if code != 200 {
			t.Fatalf("/healthz = %d", code)
		}
		var v uint64
		if _, err := fmt.Sscanf(body, "ok version=%d", &v); err != nil {
			t.Fatalf("/healthz body %q: %v", body, err)
		}
		return v
	}

	before := version()
	if before == 0 {
		t.Fatalf("version = 0 after preload, want > 0")
	}
	for i := 0; i < 3; i++ {
		get(t, ts.URL+fmt.Sprintf("/put?key=%d&value=x", 1000+i))
	}
	if after := version(); after != before+3 {
		t.Errorf("version advanced %d -> %d over 3 puts, want +3", before, after)
	}

	code, body := get(t, ts.URL+"/stats")
	if code != 200 {
		t.Fatalf("/stats = %d", code)
	}
	for _, want := range []string{"version ", "versions_published ", "versions_reclaimed ", "copied_nodes ", "copy_allocs ", "active_snapshots "} {
		if !strings.Contains(body, want) {
			t.Errorf("/stats missing %q:\n%s", want, body)
		}
	}

	code, body = get(t, ts.URL+"/debug/snapshot")
	if code != 200 {
		t.Fatalf("/debug/snapshot = %d", code)
	}
	var mv simdtree.MVCCStats
	if err := json.Unmarshal([]byte(body), &mv); err != nil {
		t.Fatalf("/debug/snapshot did not parse: %v\n%s", err, body)
	}
	if len(mv.Versions) != 4 {
		t.Errorf("/debug/snapshot versions = %v, want one per shard (4)", mv.Versions)
	}
	if mv.Published == 0 || mv.CurrentVersion() == 0 {
		t.Errorf("/debug/snapshot reports no publications: %+v", mv)
	}
	if mv.CopiedNodes == 0 || mv.Cloned != 0 {
		t.Errorf("/debug/snapshot: %d nodes copied and %d trees cloned, want some and none", mv.CopiedNodes, mv.Cloned)
	}
	if mv.CopyAllocs > mv.CopiedNodes {
		t.Errorf("/debug/snapshot: %d copies allocated storage, more than the %d copied", mv.CopyAllocs, mv.CopiedNodes)
	}

	_, metrics := get(t, ts.URL+"/metrics")
	for _, want := range []string{
		"# TYPE segserve_mvcc_current_version gauge",
		"# TYPE segserve_mvcc_active_snapshots gauge",
		"# TYPE segserve_mvcc_published_versions_total counter",
		"# TYPE segserve_mvcc_reclaimed_versions_total counter",
		"# TYPE segserve_mvcc_copied_nodes_total counter",
		"# TYPE segserve_mvcc_copy_allocs_total counter",
		"# TYPE segserve_mvcc_publish_latency_seconds histogram",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestReaderSlotsExported: the shards of a 4-shard server share one
// reader-slot array, so /stats reader_slots and /metrics
// mvcc_reader_slots report that array's size, not four times it, and a
// held whole-index snapshot counts as one active snapshot, not one per
// shard.
func TestReaderSlotsExported(t *testing.T) {
	s, ts := newTestServer(t)
	want := 64
	for want < 8*runtime.GOMAXPROCS(0) {
		want *= 2
	}
	stat := func(name string) int {
		t.Helper()
		_, stats := get(t, ts.URL+"/stats")
		for _, line := range strings.Split(stats, "\n") {
			if v, ok := strings.CutPrefix(line, name+" "); ok {
				n, err := strconv.Atoi(v)
				if err != nil {
					t.Fatalf("/stats %s = %q: %v", name, v, err)
				}
				return n
			}
		}
		t.Fatalf("/stats has no %s:\n%s", name, stats)
		return 0
	}
	if got := stat("reader_slots"); got != want {
		t.Errorf("/stats reader_slots = %d, want the one array's %d", got, want)
	}
	if _, metrics := get(t, ts.URL+"/metrics"); !strings.Contains(metrics, fmt.Sprintf("\nsegserve_mvcc_reader_slots %d\n", want)) {
		t.Errorf("/metrics lacks segserve_mvcc_reader_slots %d", want)
	}
	if got := stat("active_snapshots"); got != 0 {
		t.Errorf("/stats active_snapshots = %d with no reader held, want 0", got)
	}
	snap, ok := s.ix.ReadSnapshot()
	if !ok {
		t.Fatal("the 4-shard server's index hands out no snapshots")
	}
	if got := stat("active_snapshots"); got != 1 {
		t.Errorf("/stats active_snapshots = %d under one held 4-shard snapshot, want 1", got)
	}
	snap.Release()
	if got := stat("active_snapshots"); got != 0 {
		t.Errorf("/stats active_snapshots = %d after Release, want 0", got)
	}
}

func TestServerStatsAndMetrics(t *testing.T) {
	_, ts := newTestServer(t)
	for i := 0; i < 10; i++ {
		get(t, ts.URL+"/get?key=7")
	}

	code, body := get(t, ts.URL+"/stats")
	if code != 200 {
		t.Fatalf("/stats = %d", code)
	}
	if !strings.Contains(body, "keys 100") {
		t.Errorf("/stats missing key count:\n%s", body)
	}
	if !strings.Contains(body, "op_get_count 10") {
		t.Errorf("/stats missing get op count:\n%s", body)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("/metrics Content-Type = %q", ct)
	}
	b, _ := io.ReadAll(resp.Body)
	metrics := string(b)
	for _, want := range []string{
		"# TYPE segserve_op_latency_seconds histogram",
		`segserve_op_latency_seconds_count{op="get"} 10`,
		"# TYPE segserve_simd_comparisons_total counter",
		"segserve_keys 100",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	if code, body := get(t, ts.URL+"/debug/vars"); code != 200 || !strings.Contains(body, "segserve") {
		t.Errorf("/debug/vars = %d, contains segserve = %v", code, strings.Contains(body, "segserve"))
	}
	if code, _ := get(t, ts.URL+"/debug/pprof/cmdline"); code != 200 {
		t.Errorf("/debug/pprof/cmdline = %d", code)
	}
}

func TestShapeEndpoint(t *testing.T) {
	_, ts := newTestServer(t)

	// Text form: the merged sharded report of the preloaded index.
	code, body := get(t, ts.URL+"/debug/shape")
	if code != 200 {
		t.Fatalf("/debug/shape = %d", code)
	}
	for _, want := range []string{
		"structure=sharded/opt-segtrie", "keys=100", "shards=4",
		"fill: degree=", "memory: total=", "simd: registers=",
		"omitted-levels=",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/debug/shape body missing %q:\n%s", want, body)
		}
	}

	// JSON form round-trips into the report type.
	code, body = get(t, ts.URL+"/debug/shape?format=json")
	if code != 200 {
		t.Fatalf("/debug/shape json = %d", code)
	}
	var rep simdtree.ShapeReport
	if err := json.Unmarshal([]byte(body), &rep); err != nil {
		t.Fatalf("/debug/shape json did not parse: %v\n%s", err, body)
	}
	if rep.Keys != 100 || rep.Shards != 4 || rep.Structure != "sharded/opt-segtrie" {
		t.Errorf("report = %q keys=%d shards=%d, want sharded/opt-segtrie/100/4",
			rep.Structure, rep.Keys, rep.Shards)
	}
	if rep.TotalBytes == 0 || rep.Registers == 0 || len(rep.LevelFill) == 0 {
		t.Errorf("report missing substance: %+v", rep)
	}
	// 100 dense preloaded uint64 keys compress well: the optimized tries
	// must report omitted levels with positive savings.
	if rep.OmittedLevels == 0 || rep.OmittedSavingsBytes <= 0 {
		t.Errorf("dense preload reports no level omission: %+v", rep)
	}

	// The report's shape figures surface as /metrics gauges.
	_, metrics := get(t, ts.URL+"/metrics")
	for _, want := range []string{
		"# TYPE segserve_shape_fill_degree gauge",
		"# TYPE segserve_shape_register_utilization gauge",
		"# TYPE segserve_shape_bytes_per_key gauge",
		"segserve_shape_omitted_levels",
		"segserve_shape_replenished_slots",
		"segserve_shape_padding_bytes",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

func TestNewServerRejectsUnknownStructure(t *testing.T) {
	if _, err := newServer(serverConfig{structure: "skiplist", shards: 1}); err == nil {
		t.Fatal("unknown structure accepted")
	}
}

func TestTracingEndpoints(t *testing.T) {
	s, ts := newTestServer(t)

	// Explain: text by default, structured JSON on demand.
	code, body := get(t, ts.URL+"/debug/explain?key=42")
	if code != 200 {
		t.Fatalf("/debug/explain = %d", code)
	}
	for _, want := range []string{"get key=42", "structure=opt-segtrie", "hit", "totals:"} {
		if !strings.Contains(body, want) {
			t.Errorf("/debug/explain body missing %q:\n%s", want, body)
		}
	}
	if code, body := get(t, ts.URL+"/debug/explain?key=42&format=json"); code != 200 ||
		!strings.Contains(body, `"structure": "opt-segtrie"`) {
		t.Errorf("/debug/explain json = %d %q", code, body)
	}
	if code, _ := get(t, ts.URL+"/debug/explain?key=bogus"); code != 400 {
		t.Errorf("/debug/explain bad key = %d, want 400", code)
	}

	// Rate controls: set to 1, verify every get is sampled.
	if code, body := get(t, ts.URL+"/debug/tracerate?every=1&slow=1ns"); code != 200 ||
		!strings.Contains(body, `"rate": 1`) {
		t.Fatalf("/debug/tracerate set = %d %q", code, body)
	}
	for i := 0; i < 5; i++ {
		get(t, ts.URL+"/get?key=7")
	}
	if st := s.ix.Sampler().Stats(); st.Sampled < 5 {
		t.Fatalf("rate 1 sampled %d of >= 5 gets", st.Sampled)
	}
	if code, body := get(t, ts.URL+"/debug/traces"); code != 200 ||
		!strings.Contains(body, `"key": "7"`) {
		t.Errorf("/debug/traces = %d, missing sampled key:\n%s", code, body)
	}
	if code, body := get(t, ts.URL+"/debug/slowops"); code != 200 ||
		!strings.Contains(body, `"steps"`) {
		t.Errorf("/debug/slowops = %d %q", code, body)
	}
	if code, _ := get(t, ts.URL+"/debug/tracerate?every=bogus"); code != 400 {
		t.Errorf("/debug/tracerate bad every = %d, want 400", code)
	}
	if code, _ := get(t, ts.URL+"/debug/tracerate?slow=bogus"); code != 400 {
		t.Errorf("/debug/tracerate bad slow = %d, want 400", code)
	}
}

func TestMetricsIncludeRuntimeAndSampler(t *testing.T) {
	_, ts := newTestServer(t)
	get(t, ts.URL+"/get?key=1")
	_, body := get(t, ts.URL+"/metrics")
	for _, want := range []string{
		"# TYPE segserve_go_goroutines gauge",
		"# TYPE segserve_go_gc_cycles_total counter",
		"# TYPE segserve_go_sched_latency_seconds histogram",
		"segserve_trace_sampled_total",
		"segserve_trace_slow_total",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

func TestRequestLogging(t *testing.T) {
	s, err := newServer(serverConfig{structure: "segtree", shards: 1, preload: 10})
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	logger := slog.New(slog.NewTextHandler(&buf, nil))
	ts := httptest.NewServer(s.handler(logger))
	defer ts.Close()

	get(t, ts.URL+"/get?key=3")
	get(t, ts.URL+"/get?key=99999")
	get(t, ts.URL+"/getbatch?keys=1,2,3")
	logs := buf.String()
	for _, want := range []string{
		"method=GET", "path=/get", "status=200", "keys=1",
		"status=404",
		"path=/getbatch", "keys=3",
	} {
		if !strings.Contains(logs, want) {
			t.Errorf("request log missing %q in:\n%s", want, logs)
		}
	}
}

func TestScanEndpoint(t *testing.T) {
	_, ts := newTestServer(t)

	code, body := get(t, ts.URL+"/scan?lo=10&hi=14")
	if code != 200 {
		t.Fatalf("/scan = %d", code)
	}
	if want := "10 10\n11 11\n12 12\n13 13\n14 14\n"; body != want {
		t.Errorf("/scan body = %q, want %q", body, want)
	}
	// The limit truncates an over-wide range.
	code, body = get(t, ts.URL+"/scan?lo=0&hi=99&limit=3")
	if code != 200 || body != "0 0\n1 1\n2 2\n" {
		t.Errorf("/scan limited = %d %q", code, body)
	}
	// An empty range is an empty 200, not an error.
	if code, body := get(t, ts.URL+"/scan?lo=5000&hi=6000"); code != 200 || body != "" {
		t.Errorf("/scan empty range = %d %q", code, body)
	}
	for _, bad := range []string{
		"/scan?hi=5", "/scan?lo=5", "/scan?lo=x&hi=5", "/scan?lo=0&hi=5&limit=0",
	} {
		if code, _ := get(t, ts.URL+bad); code != 400 {
			t.Errorf("%s = %d, want 400", bad, code)
		}
	}
}

// TestStatsQuantiles checks /stats reports the interpolated latency
// quantiles per op, matching what the workload driver computes
// client-side.
func TestStatsQuantiles(t *testing.T) {
	_, ts := newTestServer(t)
	for i := 0; i < 20; i++ {
		get(t, ts.URL+"/get?key=7")
	}
	code, body := get(t, ts.URL+"/stats")
	if code != 200 {
		t.Fatalf("/stats = %d", code)
	}
	for _, want := range []string{"op_get_p50_ns ", "op_get_p99_ns ", "op_get_p999_ns "} {
		if !strings.Contains(body, want) {
			t.Errorf("/stats missing %q:\n%s", want, body)
		}
	}
	var p50, p99 float64
	for _, line := range strings.Split(body, "\n") {
		if v, ok := strings.CutPrefix(line, "op_get_p50_ns "); ok {
			fmt.Sscanf(v, "%g", &p50)
		}
		if v, ok := strings.CutPrefix(line, "op_get_p99_ns "); ok {
			fmt.Sscanf(v, "%g", &p99)
		}
	}
	if p50 <= 0 || p99 < p50 {
		t.Errorf("/stats quantiles not sane: p50=%g p99=%g\n%s", p50, p99, body)
	}
}

// TestGracefulShutdown covers the drain path: a request in flight when
// the shutdown signal lands still completes, runServer returns nil, and
// new connections are refused afterwards.
func TestGracefulShutdown(t *testing.T) {
	inFlight := make(chan struct{})
	release := make(chan struct{})
	mux := http.NewServeMux()
	mux.HandleFunc("/slow", func(w http.ResponseWriter, r *http.Request) {
		close(inFlight)
		<-release
		fmt.Fprintln(w, "done")
	})

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	srv := &http.Server{Handler: mux}
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	done := make(chan error, 1)
	go func() { done <- runServer(ctx, srv, ln, 5*time.Second, logger) }()

	reqErr := make(chan error, 1)
	reqBody := make(chan string, 1)
	go func() {
		resp, err := http.Get("http://" + ln.Addr().String() + "/slow")
		if err != nil {
			reqErr <- err
			return
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		reqBody <- string(b)
	}()

	<-inFlight // the slow request is being served
	cancel()   // deliver the "shutdown signal"
	// Shutdown must wait for the in-flight request; release it shortly
	// after and both the request and the server must finish cleanly.
	time.Sleep(50 * time.Millisecond)
	select {
	case err := <-done:
		t.Fatalf("runServer returned %v with a request still in flight", err)
	default:
	}
	close(release)

	select {
	case body := <-reqBody:
		if strings.TrimSpace(body) != "done" {
			t.Errorf("in-flight request body = %q", body)
		}
	case err := <-reqErr:
		t.Errorf("in-flight request failed during drain: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight request never completed")
	}
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("runServer = %v, want clean drain", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("runServer never returned after drain")
	}
	if _, err := http.Get("http://" + ln.Addr().String() + "/slow"); err == nil {
		t.Error("server still accepting connections after shutdown")
	}
}

// TestStalledHeadersLoseConnection: a client that sends half a request
// line and then stalls has its connection closed once the header
// timeout passes (shortened here to keep the test quick). A server
// without the timeout would hold the connection until the client gave
// up.
func TestStalledHeadersLoseConnection(t *testing.T) {
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	s, err := newServer(serverConfig{structure: "segtree", shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv := s.httpServer(logger)
	if srv.ReadHeaderTimeout != readHeaderTimeout || srv.IdleTimeout != idleTimeout {
		t.Errorf("connection limits: header %v, idle %v", srv.ReadHeaderTimeout, srv.IdleTimeout)
	}
	srv.ReadHeaderTimeout = 100 * time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		srv.Close()
		<-served
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /heal"); err != nil {
		t.Fatal(err)
	}
	if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	// The server may answer the broken request before it hangs up; the
	// read ends at EOF either way, long before the client's deadline.
	if reply, err := io.ReadAll(conn); err != nil {
		t.Fatalf("stalled client still connected: %v (read %q)", err, reply)
	}
}

// TestShutdownDeadlineExpires pins the other half of the contract: a
// request that outlives the drain timeout makes runServer report the
// incomplete drain instead of hanging.
func TestShutdownDeadlineExpires(t *testing.T) {
	inFlight := make(chan struct{})
	release := make(chan struct{})
	defer close(release)
	mux := http.NewServeMux()
	mux.HandleFunc("/stuck", func(w http.ResponseWriter, r *http.Request) {
		close(inFlight)
		<-release
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	done := make(chan error, 1)
	go func() {
		done <- runServer(ctx, &http.Server{Handler: mux}, ln, 20*time.Millisecond, logger)
	}()
	go http.Get("http://" + ln.Addr().String() + "/stuck")
	<-inFlight
	cancel()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "drain incomplete") {
			t.Errorf("runServer = %v, want drain-incomplete error", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("runServer hung past its drain deadline")
	}
}

// TestDriverOverHTTP is the end-to-end path the load harness uses: the
// mixed-workload driver running through segclient and SegserveTarget
// against this server's mux, exercising every op type including /scan
// and /getbatch.
func TestDriverOverHTTP(t *testing.T) {
	_, ts := newTestServer(t)
	c := segclient.New(ts.URL)
	ctx := context.Background()
	if err := c.WaitReady(ctx, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	tgt := driver.NewSegserveTarget(c)
	spec, err := driver.ParseSpec("read=40,write=40,scan=10,batch=10;keys=100;clients=4;ops=1200;batchsize=4;scanlen=5")
	if err != nil {
		t.Fatal(err)
	}
	res, err := driver.Run(ctx, tgt, spec, func(k uint64) string {
		return "v" + strconv.FormatUint(k, 10)
	})
	if err != nil {
		t.Fatalf("Run over HTTP: %v", err)
	}
	if res.Total != 1200 || res.Errors != 0 {
		t.Fatalf("HTTP run total=%d errors=%d, want 1200/0", res.Total, res.Errors)
	}
	for _, op := range res.Ops {
		if op.Count == 0 {
			t.Errorf("op %s got no traffic over HTTP", op.Op)
		}
	}
	// The server saw the traffic too: its stats report the op counts.
	_, body := get(t, ts.URL+"/stats")
	for _, want := range []string{"op_get_count ", "op_put_count ", "op_get_p50_ns "} {
		if !strings.Contains(body, want) {
			t.Errorf("server stats after driver run missing %q:\n%s", want, body)
		}
	}
}

// syncBuffer is a mutex-guarded bytes.Buffer: the server logs from
// concurrent request goroutines, so a bare buffer would race.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestTraceE2E proves the tentpole end to end: a traced driver run over
// segclient propagates each op's trace ID on the wire, and that SAME ID
// is observable at every server tier — the request log line, the span
// ring behind /debug/requests (as a remote child of the client's root
// span, descent attached), and the /metrics exemplars.
func TestTraceE2E(t *testing.T) {
	// span-rate 0: the only server spans are continuations of client
	// traceparents, so every assertion below is about propagation.
	s, err := newServer(serverConfig{structure: "opt-segtrie", shards: 4, preload: 512, spanRate: 0})
	if err != nil {
		t.Fatal(err)
	}
	var logBuf syncBuffer
	ts := httptest.NewServer(s.handler(slog.New(slog.NewJSONHandler(&logBuf, nil))))
	defer ts.Close()

	tgt := driver.NewSegserveTarget(segclient.New(ts.URL))
	tracer := reqtrace.NewTracer(1, 256) // trace every measured op
	spec, err := driver.ParseSpec("read=100,write=0;keys=512;clients=2;ops=32;warmup=0s")
	if err != nil {
		t.Fatal(err)
	}
	res, err := driver.Run(context.Background(), tgt, spec, func(k uint64) string {
		return strconv.FormatUint(k, 10)
	}, driver.WithTracer(tracer))
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors > 0 {
		t.Fatalf("traced run had %d errors", res.Errors)
	}

	clientSpans := tracer.Spans()
	if len(clientSpans) == 0 {
		t.Fatal("client tracer recorded no spans")
	}
	sp := clientSpans[0]
	id := sp.TraceID.String()

	// Tier 1 → 2: the server's request log carries the client's trace ID.
	if !strings.Contains(logBuf.String(), id) {
		t.Errorf("server log does not mention client trace %s", id)
	}

	// Tier 3: /debug/requests?trace= finds the server-side span as a
	// remote child of the client's root span, with the descent attached.
	code, body := get(t, ts.URL+"/debug/requests?trace="+id)
	if code != 200 {
		t.Fatalf("/debug/requests?trace=%s = %d", id, code)
	}
	var out struct {
		Spans []struct {
			TraceID string          `json:"trace_id"`
			Parent  string          `json:"parent_span_id"`
			Remote  bool            `json:"remote"`
			Name    string          `json:"name"`
			Descent json.RawMessage `json:"descent"`
		} `json:"spans"`
	}
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatalf("/debug/requests JSON: %v", err)
	}
	if len(out.Spans) != 1 {
		t.Fatalf("server retained %d spans for trace %s, want 1:\n%s", len(out.Spans), id, body)
	}
	srv := out.Spans[0]
	if srv.TraceID != id {
		t.Errorf("server span trace = %s, want %s", srv.TraceID, id)
	}
	if !srv.Remote || srv.Parent != sp.SpanID.String() {
		t.Errorf("server span remote=%v parent=%s, want remote child of client span %s",
			srv.Remote, srv.Parent, sp.SpanID)
	}
	if srv.Name != "/get" {
		t.Errorf("server span name = %q, want /get", srv.Name)
	}
	if len(srv.Descent) == 0 || string(srv.Descent) == "null" {
		t.Error("server span carries no descent evidence")
	}

	// Tier 4: with every op sampled, the request-latency buckets carry
	// exemplars, and each names one of the client's trace IDs.
	_, metrics := get(t, ts.URL+"/metrics")
	i := strings.Index(metrics, `# {trace_id="`)
	if i < 0 {
		t.Fatalf("/metrics has no exemplars:\n%s", metrics)
	}
	exID := metrics[i+len(`# {trace_id="`):][:32]
	known := false
	for _, csp := range clientSpans {
		if csp.TraceID.String() == exID {
			known = true
			break
		}
	}
	if !known {
		t.Errorf("exemplar trace %s is not one of the %d client trace IDs", exID, len(clientSpans))
	}
}

// TestRequestSpans exercises the middleware's three span decisions —
// headerless + rate 0 means no span, a valid sampled traceparent is
// always continued as a remote child, an unsampled one is not — and the
// /debug/requests lookup over the results.
func TestRequestSpans(t *testing.T) {
	s, err := newServer(serverConfig{structure: "segtree", shards: 1, preload: 8, spanRate: 0})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.handler(slog.New(slog.NewTextHandler(io.Discard, nil))))
	defer ts.Close()

	// Headerless request, self-sampling disabled: no span.
	if _, body := get(t, ts.URL+"/get?key=1"); strings.TrimSpace(body) != "1" {
		t.Fatalf("/get = %q", body)
	}
	if n := len(s.tracer.Spans()); n != 0 {
		t.Fatalf("headerless request at span-rate 0 produced %d spans", n)
	}

	// A valid sampled traceparent is continued regardless of the rate.
	const traceID = "0123456789abcdef0123456789abcdef"
	doGet := func(header string) {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, ts.URL+"/get?key=2", nil)
		if err != nil {
			t.Fatal(err)
		}
		if header != "" {
			req.Header.Set("traceparent", header)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	doGet("00-" + traceID + "-00f067aa0ba902b7-01")
	spans := s.tracer.Spans()
	if len(spans) != 1 {
		t.Fatalf("sampled traceparent produced %d spans, want 1", len(spans))
	}
	sp := spans[0]
	if sp.TraceID.String() != traceID {
		t.Errorf("continued span trace = %s, want %s", sp.TraceID, traceID)
	}
	if !sp.Remote || sp.Parent.String() != "00f067aa0ba902b7" {
		t.Errorf("continued span remote=%v parent=%s, want remote child of 00f067aa0ba902b7", sp.Remote, sp.Parent)
	}
	if sp.Descent == nil {
		t.Error("sampled /get did not attach its descent to the span")
	}
	if sp.Duration <= 0 {
		t.Errorf("span duration = %v, want > 0", sp.Duration)
	}

	// An unsampled (flags 00) traceparent is passed over.
	doGet("00-" + traceID + "-00f067aa0ba902b7-00")
	if n := len(s.tracer.Spans()); n != 1 {
		t.Fatalf("unsampled traceparent changed span count to %d", n)
	}

	// /debug/requests: full listing, by-trace lookup, miss, bad ID.
	code, body := get(t, ts.URL+"/debug/requests?trace="+traceID)
	if code != 200 {
		t.Fatalf("/debug/requests?trace= = %d:\n%s", code, body)
	}
	var out struct {
		Stats struct {
			Started uint64 `json:"started"`
		} `json:"stats"`
		Spans []struct {
			TraceID string `json:"trace_id"`
			Name    string `json:"name"`
		} `json:"spans"`
	}
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatalf("/debug/requests JSON: %v", err)
	}
	if out.Stats.Started != 1 || len(out.Spans) != 1 {
		t.Fatalf("/debug/requests = started %d, %d spans, want 1/1:\n%s", out.Stats.Started, len(out.Spans), body)
	}
	if out.Spans[0].TraceID != traceID || out.Spans[0].Name != "/get" {
		t.Errorf("/debug/requests span = %+v", out.Spans[0])
	}
	if _, body := get(t, ts.URL+"/debug/requests?trace="+strings.Repeat("9", 32)); !strings.Contains(body, `"spans": []`) && !strings.Contains(body, `"spans":[]`) && !strings.Contains(body, `"spans": null`) {
		t.Errorf("/debug/requests miss returned spans:\n%s", body)
	}
	if code, _ := get(t, ts.URL+"/debug/requests?trace=zzz"); code != 400 {
		t.Errorf("/debug/requests bad trace = %d, want 400", code)
	}

	// The sampled request left its exemplar on /metrics and /stats.
	if _, body := get(t, ts.URL+"/metrics"); !strings.Contains(body, `# {trace_id="`+traceID+`"}`) {
		t.Errorf("/metrics missing the exemplar for %s:\n%s", traceID, body)
	}
	if _, body := get(t, ts.URL+"/stats"); !strings.Contains(body, "# exemplar bucket=") ||
		!strings.Contains(body, "trace_id="+traceID) {
		t.Errorf("/stats missing the exemplar breadcrumb for %s", traceID)
	}
}

func TestNewLoggerLevels(t *testing.T) {
	for _, lv := range []string{"debug", "info", "WARN", "error"} {
		if _, err := newLogger(lv, "text"); err != nil {
			t.Errorf("newLogger(%q) = %v", lv, err)
		}
	}
	if _, err := newLogger("loud", "text"); err == nil {
		t.Error("newLogger accepted a bogus level")
	}
	if _, err := newLogger("info", "xml"); err == nil {
		t.Error("newLogger accepted a bogus format")
	}
}

// TestLogFormats proves both -log-format handlers emit the request
// fields — text as key=value pairs, json as a parseable object — since
// the trace_id stamped on sampled requests is only greppable if the
// format actually carries attributes through.
func TestLogFormats(t *testing.T) {
	s, err := newServer(serverConfig{structure: "segtree", shards: 1, preload: 4, spanRate: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, format := range []string{"text", "json"} {
		var lv slog.Level
		var buf bytes.Buffer
		var h slog.Handler
		if format == "json" {
			h = slog.NewJSONHandler(&buf, &slog.HandlerOptions{Level: lv})
		} else {
			h = slog.NewTextHandler(&buf, &slog.HandlerOptions{Level: lv})
		}
		ts := httptest.NewServer(s.handler(slog.New(h)))
		resp, err := http.Get(ts.URL + "/get?key=1")
		if err != nil {
			t.Fatalf("[%s] get: %v", format, err)
		}
		resp.Body.Close()
		ts.Close()
		line := buf.String()
		switch format {
		case "text":
			for _, want := range []string{"msg=request", "path=/get", "status=200", "trace_id="} {
				if !strings.Contains(line, want) {
					t.Errorf("text log line missing %q:\n%s", want, line)
				}
			}
		case "json":
			var rec map[string]any
			if err := json.Unmarshal([]byte(strings.TrimSpace(line)), &rec); err != nil {
				t.Fatalf("json log line does not parse: %v\n%s", err, line)
			}
			if rec["msg"] != "request" || rec["path"] != "/get" {
				t.Errorf("json log record = %v, want msg=request path=/get", rec)
			}
			id, _ := rec["trace_id"].(string)
			if len(id) != 32 {
				t.Errorf("json log trace_id = %q, want 32 hex chars", id)
			}
		}
	}
}
