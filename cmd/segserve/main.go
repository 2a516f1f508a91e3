// Command segserve exposes one index structure over HTTP together with
// its full observability surface: per-operation latency histograms and
// the paper's point-lookup cost counters (SIMD comparisons, node visits,
// ...) in one metric table that /stats renders as "key value" lines and
// /metrics as Prometheus text (with Go runtime metrics), expvar
// JSON, Go's pprof profiles, and per-operation search tracing — an
// on-demand Explain endpoint plus always-on 1-in-N sampled traces with a
// slow-op log. With -slo it also runs a burn-rate SLO engine over
// recent-window metrics and a flight recorder that freezes a diagnostics
// bundle on each transition into breach.
//
// Every request also runs under a request span (internal/reqtrace): a
// valid sampled W3C traceparent header continues the caller's trace, and
// headerless requests are self-sampled 1 in -span-rate. Sampled spans
// carry the trace_id/span_id stamped into the request log line, feed
// OpenMetrics exemplars on the request-latency histogram, and are
// retained for /debug/requests — so one trace ID follows an operation
// from a segload client through this server's logs, metrics and debug
// endpoints.
//
//	segserve -structure opt-segtrie -shards 16 -preload 100000 \
//	    -slo 'get_p99<2ms,error_rate<0.001' -ready-slo -flight-dir /tmp/flight
//
//	curl 'localhost:8080/put?key=42&value=answer'
//	curl 'localhost:8080/get?key=42'
//	curl 'localhost:8080/getbatch?keys=1,2,42'
//	curl 'localhost:8080/scan?lo=10&hi=20&limit=5'
//	curl 'localhost:8080/stats'            # the metric table as "key value" lines
//	curl 'localhost:8080/metrics'          # the same table, Prometheus 0.0.4
//	curl 'localhost:8080/debug/vars'       # expvar JSON
//	curl 'localhost:8080/debug/snapshot'   # MVCC state: versions, pinned readers, reclamation
//	curl 'localhost:8080/debug/shape'      # structural-health report (?format=json)
//	curl 'localhost:8080/debug/explain?key=42'          # one traced descent
//	curl 'localhost:8080/debug/explain?key=42&format=json'
//	curl 'localhost:8080/debug/traces'     # recent sampled traces (JSON)
//	curl 'localhost:8080/debug/requests'   # recent request spans; ?trace=<32 hex> looks one trace up
//	curl 'localhost:8080/debug/slowops'    # sampled traces over the threshold
//	curl 'localhost:8080/debug/tracerate'  # sampler stats; set with ?every=&slow=
//	curl 'localhost:8080/healthz'          # liveness (never SLO-aware)
//	curl 'localhost:8080/readyz'           # readiness; 503 while breaching with -ready-slo
//	curl 'localhost:8080/debug/slo'        # SLO engine status (JSON)
//	curl 'localhost:8080/debug/flightrecorder'       # bundle list
//	curl 'localhost:8080/debug/flightrecorder?id=1'  # one full bundle
//
// Keys are uint64, values are strings. The index is wrapped in
// InstrumentedIndex (histograms + counters + trace sampling) over MVCC
// snapshot publication — a VersionedIndex, or with -shards >= 2 a
// ShardedIndex whose shards each publish versions — so concurrent
// requests are safe and reads never take a lock.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	simdtree "repro"
	"repro/internal/health"
	"repro/internal/obs"
	"repro/internal/reqtrace"
	"repro/internal/trace"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	logLevel := flag.String("log-level", "info", "log level: debug, info, warn, error")
	logFormat := flag.String("log-format", "text", "log format: text or json")
	traceRate := flag.Int("trace-rate", 1024, "trace 1 in this many gets (0 disables sampling)")
	slowThreshold := flag.Duration("slow-threshold", time.Millisecond,
		"sampled gets at least this slow enter the slow-op log (0 disables)")
	drain := flag.Duration("drain", 10*time.Second,
		"how long to wait for in-flight requests on SIGINT/SIGTERM")
	var cfg serverConfig
	flag.StringVar(&cfg.structure, "structure", "segtree",
		"index structure: segtree, segtrie, opt-segtrie, btree")
	flag.IntVar(&cfg.shards, "shards", 16, "key-range shards (>= 2; 1 disables sharding)")
	flag.IntVar(&cfg.preload, "preload", 0, "preload this many consecutive keys before serving")
	flag.IntVar(&cfg.spanRate, "span-rate", 1024,
		"self-sample 1 in this many headerless requests as request spans (0 disables; sampled traceparents are always continued)")
	flag.StringVar(&cfg.slo, "slo", "",
		"SLO objectives to evaluate continuously, e.g. 'get_p99<2ms,error_rate<0.001' (empty disables the engine)")
	flag.BoolVar(&cfg.readySLO, "ready-slo", false,
		"make /readyz return 503 while the SLO state is breaching (requires -slo)")
	flag.StringVar(&cfg.flightDir, "flight-dir", "",
		"spill flight-recorder diagnostics bundles to this directory (in-memory ring only when empty)")
	flag.DurationVar(&cfg.tick, "window-tick", defaultWindowTick,
		"epoch length of the windowed metrics; windows are merges of these epochs")
	flag.DurationVar(&cfg.fastWindow, "slo-fast", health.DefaultFastWindow,
		"fast burn-rate window (also the /stats window_* quantile span)")
	flag.DurationVar(&cfg.slowWindow, "slo-slow", health.DefaultSlowWindow,
		"slow burn-rate window")
	flag.Parse()

	logger, err := newLogger(*logLevel, *logFormat)
	if err != nil {
		fmt.Fprintf(os.Stderr, "segserve: %v\n", err)
		os.Exit(1)
	}
	slog.SetDefault(logger)

	s, err := newServer(cfg)
	if err != nil {
		logger.Error("startup failed", "err", err)
		os.Exit(1)
	}
	s.ix.Sampler().SetRate(*traceRate)
	s.ix.Sampler().SetSlowThreshold(*slowThreshold)
	logger.Info("serving",
		"structure", cfg.structure, "shards", cfg.shards, "addr", *addr,
		"preloaded", cfg.preload, "trace_rate", *traceRate, "slow_threshold", *slowThreshold,
		"span_rate", cfg.spanRate, "slo", cfg.slo, "window_tick", cfg.tick)
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	go s.runTicker(ctx)
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Error("listen failed", "addr", *addr, "err", err)
		os.Exit(1)
	}
	if err := runServer(ctx, s.httpServer(logger), ln, *drain, logger); err != nil {
		logger.Error("server exited", "err", err)
		os.Exit(1)
	}
}

// runServer serves srv on ln until ctx is cancelled (a shutdown
// signal), then drains in-flight requests via http.Server.Shutdown with
// the given timeout. A nil return is a clean drain; requests still open
// at the deadline are cut off and the Shutdown error returned. Split
// from main so the drain path is testable.
func runServer(ctx context.Context, srv *http.Server, ln net.Listener, drain time.Duration, logger *slog.Logger) error {
	errc := make(chan error, 1)
	go func() {
		if err := srv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
			errc <- err
		}
	}()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	logger.Info("shutting down", "drain", drain)
	sctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		return fmt.Errorf("drain incomplete after %v: %w", drain, err)
	}
	logger.Info("drained cleanly")
	return nil
}

// newLogger builds a slog.Logger at the named level in the named format:
// "text" (logfmt-style key=value) for humans tailing the process, "json"
// for log pipelines that index fields like trace_id.
func newLogger(level, format string) (*slog.Logger, error) {
	var lv slog.Level
	if err := lv.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("bad -log-level %q: %w", level, err)
	}
	opts := &slog.HandlerOptions{Level: lv}
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	default:
		return nil, fmt.Errorf("bad -log-format %q (want text or json)", format)
	}
}

// defaultWindowTick is the epoch length of the windowed metrics: coarse
// enough that rotation is negligible, fine enough that a 30 s fast
// window spans several epochs.
const defaultWindowTick = 5 * time.Second

// The connection limits: a client that has not sent its request headers
// after readHeaderTimeout, or leaves a keep-alive connection idle
// for idleTimeout, loses the connection, so a stalled client cannot hold
// one forever.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// serverConfig is everything newServer needs; main fills it from flags,
// tests construct it directly.
type serverConfig struct {
	structure string
	shards    int
	preload   int
	// spanRate self-samples 1 in this many headerless requests as request
	// spans (0 disables); requests carrying a valid sampled traceparent
	// are always continued regardless.
	spanRate int
	// slo enables the health engine ("" disables); readySLO ties /readyz
	// to it; flightDir spills diagnostics bundles to disk.
	slo       string
	readySLO  bool
	flightDir string
	// tick is the windowed-metrics epoch length; fastWindow and
	// slowWindow the burn-rate windows (zero means the defaults).
	tick       time.Duration
	fastWindow time.Duration
	slowWindow time.Duration
}

// server owns the instrumented index and its HTTP handlers. It is split
// from main so tests can drive the mux through httptest.
type server struct {
	ix  *simdtree.InstrumentedIndex[uint64, string]
	cfg serverConfig
	// reqTotal and reqErrs count requests and 5xx responses per window
	// epoch — the denominators and numerators of error_rate objectives.
	reqTotal *obs.WindowedCounter
	reqErrs  *obs.WindowedCounter
	// tracer owns the request spans; reqLat is the whole-request latency
	// window whose buckets carry the sampled spans as exemplars.
	tracer *reqtrace.Tracer
	reqLat *obs.WindowedHistogram
	// shedBatch counts /getbatch requests refused for carrying more than
	// maxBatchKeys keys.
	shedBatch atomic.Uint64
	// engine and flight are nil unless cfg.slo is set.
	engine *health.Engine
	flight *health.Recorder
}

var structures = map[string]simdtree.Structure{
	"segtree":     simdtree.StructureSegTree,
	"segtrie":     simdtree.StructureSegTrie,
	"opt-segtrie": simdtree.StructureOptimizedSegTrie,
	"btree":       simdtree.StructureBPlusTree,
}

func newServer(cfg serverConfig) (*server, error) {
	s, ok := structures[cfg.structure]
	if !ok {
		return nil, fmt.Errorf("unknown structure %q (want segtree, segtrie, opt-segtrie or btree)", cfg.structure)
	}
	if cfg.tick <= 0 {
		cfg.tick = defaultWindowTick
	}
	if cfg.fastWindow <= 0 {
		cfg.fastWindow = health.DefaultFastWindow
	}
	if cfg.slowWindow <= 0 {
		cfg.slowWindow = health.DefaultSlowWindow
	}
	if cfg.readySLO && cfg.slo == "" {
		return nil, fmt.Errorf("-ready-slo requires -slo")
	}
	// WithSnapshots keeps the unsharded (-shards 1) server on the MVCC
	// path too: every read pins a published version instead of locking,
	// so reads never stall behind the writer. With >= 2 shards the
	// sharded index is a per-shard snapshot publisher already.
	ix := simdtree.NewInstrumentedIndex[uint64, string](
		simdtree.WithStructure(s), simdtree.WithShards(cfg.shards), simdtree.WithSnapshots())
	for i := 0; i < cfg.preload; i++ {
		ix.Put(uint64(i), strconv.Itoa(i))
	}
	// Sampling is attached here with serving defaults; main re-tunes the
	// rate and threshold from flags, and /debug/tracerate at runtime.
	ix.EnableSampling(1024, time.Millisecond)
	// The epoch ring must span the slow burn-rate window.
	epochs := int((cfg.slowWindow + cfg.tick - 1) / cfg.tick)
	ix.EnableWindows(cfg.tick, epochs)
	srv := &server{
		ix:       ix,
		cfg:      cfg,
		reqTotal: obs.NewWindowedCounter(cfg.tick, epochs),
		reqErrs:  obs.NewWindowedCounter(cfg.tick, epochs),
		tracer:   reqtrace.NewTracer(cfg.spanRate, 0),
		reqLat:   obs.NewWindowedHistogram(cfg.tick, epochs),
	}
	if cfg.slo != "" {
		objectives, err := health.ParseObjectives(cfg.slo)
		if err != nil {
			return nil, fmt.Errorf("bad -slo: %w", err)
		}
		srv.flight = health.NewRecorder(health.DefaultRecorderCap, cfg.flightDir)
		srv.engine, err = health.NewEngine(health.Config{
			Objectives: objectives,
			FastWindow: cfg.fastWindow,
			SlowWindow: cfg.slowWindow,
			Probe:      srv.probe,
			OnBreach:   srv.captureBundle,
		})
		if err != nil {
			return nil, fmt.Errorf("bad SLO configuration: %w", err)
		}
	}
	srv.ix.PublishExpvar("segserve")
	return srv, nil
}

// httpServer returns the http.Server that serves s's handler under the
// connection limits.
func (s *server) httpServer(logger *slog.Logger) *http.Server {
	return &http.Server{
		Handler:           s.handler(logger),
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
}

// probe assembles the health.Sample the SLO engine evaluates: windowed
// per-op latency snapshots plus the request/error counts over the same
// trailing window.
func (s *server) probe(window time.Duration) health.Sample {
	ops := make(map[string]obs.HistogramSnapshot, len(simdtree.Ops))
	for _, op := range simdtree.Ops {
		if h, ok := s.ix.WindowSnapshot(op, window); ok {
			ops[op.String()] = h
		}
	}
	return health.Sample{
		Ops:    ops,
		Errors: s.reqErrs.ReadWindow(window),
		Total:  s.reqTotal.ReadWindow(window),
	}
}

// tick advances one windowed-metrics epoch and, when an SLO is
// configured, re-evaluates it. Tests call it directly with a synthetic
// clock; runTicker drives it in production.
func (s *server) tick(now time.Time) {
	s.ix.RotateWindows()
	s.reqTotal.Rotate()
	s.reqErrs.Rotate()
	s.reqLat.Rotate()
	if s.engine != nil {
		s.engine.Evaluate(now)
	}
}

// runTicker rotates windows and evaluates the SLO engine every epoch
// until ctx is cancelled.
func (s *server) runTicker(ctx context.Context) {
	t := time.NewTicker(s.cfg.tick)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case now := <-t.C:
			s.tick(now)
		}
	}
}

// captureBundle is the engine's OnBreach hook: freeze every diagnostic
// the server can produce into one flight-recorder bundle. Draining (not
// copying) the slow-op ring means consecutive bundles carry distinct
// evidence.
func (s *server) captureBundle(st health.Status) {
	b := &health.Bundle{
		CapturedAt:       time.Now(),
		Reason:           "slo breach: " + strings.Join(st.BreachingObjectives(), ","),
		Status:           st,
		Windows:          make(map[string]health.WindowQuantiles),
		SlowOps:          s.ix.Sampler().DrainSlowOps(),
		Sampled:          s.ix.Sampler().Sampled(),
		Spans:            s.tracer.Drain(),
		GoroutineProfile: health.GoroutineProfile(),
	}
	for _, op := range simdtree.Ops {
		if h, ok := s.ix.WindowSnapshot(op, s.cfg.fastWindow); ok && h.Count > 0 {
			b.Windows[op.String()] = health.WindowQuantilesOf(h)
		}
	}
	rep := s.ix.Shape()
	b.Shape = &rep
	if mv, ok := s.ix.MVCCInfo(); ok {
		b.MVCC = &mv
	}
	rt := obs.ReadRuntimeSnapshot()
	b.Runtime = &rt
	id, err := s.flight.Record(b)
	if err != nil {
		slog.Error("flight-recorder spill failed", "bundle", id, "err", err)
		return
	}
	slog.Warn("slo breach: flight-recorder bundle captured",
		"bundle", id, "objectives", st.BreachingObjectives())
}

// mux routes every endpoint and wraps the routes with the windowed
// request/error counting the SLO engine's error_rate objectives read.
func (s *server) mux() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/get", s.handleGet)
	mux.HandleFunc("/put", s.handlePut)
	mux.HandleFunc("/delete", s.handleDelete)
	mux.HandleFunc("/getbatch", s.handleGetBatch)
	mux.HandleFunc("/scan", s.handleScan)
	mux.HandleFunc("/stats", s.handleStats)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	mux.HandleFunc("/debug/snapshot", s.handleSnapshot)
	mux.HandleFunc("/debug/shape", s.handleShape)
	mux.HandleFunc("/debug/explain", s.handleExplain)
	mux.HandleFunc("/debug/traces", s.handleTraces)
	mux.HandleFunc("/debug/requests", s.handleRequests)
	mux.HandleFunc("/debug/slowops", s.handleSlowOps)
	mux.HandleFunc("/debug/tracerate", s.handleTraceRate)
	mux.HandleFunc("/debug/slo", s.handleSLO)
	mux.HandleFunc("/debug/flightrecorder", s.handleFlightRecorder)
	// expvar and pprof register on http.DefaultServeMux; re-expose them on
	// our own mux so segserve works with a custom one.
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return s.counting(mux)
}

// counting feeds the windowed request and 5xx counters behind every
// error_rate objective. It counts all endpoints: a failing /stats is as
// much an error budget spend as a failing /get.
func (s *server) counting(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(sw, r)
		s.reqTotal.Add(1)
		if sw.status >= http.StatusInternalServerError {
			s.reqErrs.Add(1)
		}
	})
}

// handler wraps the mux with request spans and structured request
// logging. A valid sampled traceparent header continues the caller's
// trace as a remote child span; a headerless (or unsampled, or
// malformed) request is self-sampled 1 in cfg.spanRate. Unsampled
// requests carry a nil span through the whole stack and pay one atomic
// load here; sampled ones additionally stamp trace_id/span_id into the
// log line and become the request-latency histogram's exemplars.
func (s *server) handler(logger *slog.Logger) http.Handler {
	mux := s.mux()
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		var sp *reqtrace.Span
		if sc, err := reqtrace.ParseTraceparent(r.Header.Get(reqtrace.TraceparentHeader)); err == nil {
			sp = s.tracer.StartRemote(r.URL.Path, sc)
		} else {
			sp = s.tracer.StartRoot(r.URL.Path)
		}
		req := r
		if sp != nil {
			sp.SetAttr("method", r.Method)
			req = r.WithContext(reqtrace.NewContext(r.Context(), sp))
		}
		mux.ServeHTTP(sw, req)
		d := time.Since(start)
		attrs := []any{
			"method", r.Method,
			"path", r.URL.Path,
			"status", sw.status,
			"duration", d,
			"keys", requestKeyCount(r),
		}
		if sp != nil {
			sp.SetAttr("status", strconv.Itoa(sw.status))
			s.tracer.Finish(sp)
			s.reqLat.ObserveExemplar(d, sp.TraceID.Hi, sp.TraceID.Lo)
			attrs = append(attrs, "trace_id", sp.TraceID.String(), "span_id", sp.SpanID.String())
		} else {
			s.reqLat.Observe(d)
		}
		logger.Info("request", attrs...)
	})
}

// statusWriter captures the status code a handler wrote.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// requestKeyCount counts the keys a request addresses: one for a key=
// parameter, the list length for keys=, zero otherwise.
func requestKeyCount(r *http.Request) int {
	q := r.URL.Query()
	if q.Get("key") != "" {
		return 1
	}
	if ks := q.Get("keys"); ks != "" {
		return strings.Count(ks, ",") + 1
	}
	return 0
}

func keyParam(w http.ResponseWriter, r *http.Request) (uint64, bool) {
	k, err := strconv.ParseUint(r.URL.Query().Get("key"), 10, 64)
	if err != nil {
		http.Error(w, "bad or missing key parameter: "+err.Error(), http.StatusBadRequest)
		return 0, false
	}
	return k, true
}

func (s *server) handleGet(w http.ResponseWriter, r *http.Request) {
	k, ok := keyParam(w, r)
	if !ok {
		return
	}
	var v string
	var found bool
	if sp := reqtrace.FromContext(r.Context()); sp != nil {
		// A sampled request gets the Explain treatment for free: the
		// lookup runs traced and the descent rides on the request span, so
		// /debug/requests shows not just that this request was slow but
		// which nodes and SIMD compares its lookup paid.
		tr := trace.New("get", strconv.FormatUint(k, 10))
		v, found, _ = s.ix.GetTraced(k, tr)
		tr.Finish(found)
		sp.AttachDescent(tr)
	} else {
		v, found = s.ix.Get(k)
	}
	if !found {
		http.Error(w, "not found", http.StatusNotFound)
		return
	}
	fmt.Fprintln(w, v)
}

func (s *server) handlePut(w http.ResponseWriter, r *http.Request) {
	k, ok := keyParam(w, r)
	if !ok {
		return
	}
	s.ix.Put(k, r.URL.Query().Get("value"))
	fmt.Fprintln(w, "ok")
}

func (s *server) handleDelete(w http.ResponseWriter, r *http.Request) {
	k, ok := keyParam(w, r)
	if !ok {
		return
	}
	if !s.ix.Delete(k) {
		http.Error(w, "not found", http.StatusNotFound)
		return
	}
	fmt.Fprintln(w, "ok")
}

// maxBatchKeys bounds one /getbatch request's keys= list. A longer list
// is refused with 413 from a comma count, before any key is parsed.
const maxBatchKeys = 1024

// batchBufs is the reusable key list and answer buffers of one /getbatch
// request, sized for the largest accepted batch.
type batchBufs struct {
	ks    []uint64
	vals  []string
	found []bool
}

var batchPool = sync.Pool{New: func() any {
	return &batchBufs{
		ks:    make([]uint64, 0, maxBatchKeys),
		vals:  make([]string, maxBatchKeys),
		found: make([]bool, maxBatchKeys),
	}
}}

func (s *server) handleGetBatch(w http.ResponseWriter, r *http.Request) {
	list := r.URL.Query().Get("keys")
	if n := strings.Count(list, ",") + 1; n > maxBatchKeys {
		s.shedBatch.Add(1)
		http.Error(w, fmt.Sprintf("too many keys: %d, at most %d per batch", n, maxBatchKeys),
			http.StatusRequestEntityTooLarge)
		return
	}
	b := batchPool.Get().(*batchBufs)
	defer func() {
		clear(b.vals) // the pool must not keep values alive
		batchPool.Put(b)
	}()
	ks := b.ks[:0]
	for rest, more := list, true; more; {
		var item string
		item, rest, more = strings.Cut(rest, ",")
		k, err := strconv.ParseUint(strings.TrimSpace(item), 10, 64)
		if err != nil {
			http.Error(w, "bad keys parameter: "+err.Error(), http.StatusBadRequest)
			return
		}
		ks = append(ks, k)
	}
	s.ix.GetBatchInto(ks, b.vals, b.found)
	for i, k := range ks {
		if b.found[i] {
			fmt.Fprintf(w, "%d %s\n", k, b.vals[i])
		} else {
			fmt.Fprintf(w, "%d MISSING\n", k)
		}
	}
}

// handleScan streams the [lo, hi] range in key order as "key value"
// lines, at most limit of them (default 1000). Each shard's reader slot
// stays claimed while its lines are written to the client, and the
// index's shards share one pool of slots (DESIGN §6), so slow /scan
// clients hold slots that every shard's readers draw on.
func (s *server) handleScan(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	lo, err := strconv.ParseUint(q.Get("lo"), 10, 64)
	if err != nil {
		http.Error(w, "bad or missing lo parameter: "+err.Error(), http.StatusBadRequest)
		return
	}
	hi, err := strconv.ParseUint(q.Get("hi"), 10, 64)
	if err != nil {
		http.Error(w, "bad or missing hi parameter: "+err.Error(), http.StatusBadRequest)
		return
	}
	limit := 1000
	if ls := q.Get("limit"); ls != "" {
		if limit, err = strconv.Atoi(ls); err != nil || limit < 1 {
			http.Error(w, "bad limit parameter (want a positive integer)", http.StatusBadRequest)
			return
		}
	}
	n := 0
	s.ix.Scan(lo, hi, func(k uint64, v string) bool {
		fmt.Fprintf(w, "%d %s\n", k, v)
		n++
		return n < limit
	})
}

// metrics builds the server's metric table, the one source both /stats
// and /metrics render: the instrumented index's rows, MVCC publication,
// the Go runtime, sampler and span counts, the fast-window request
// figures and per-op windows, sheds, and the SLO engine and flight
// recorder when configured.
func (s *server) metrics() []obs.Metric {
	rows := s.ix.Snapshot().Metrics()
	if mv, ok := s.ix.MVCCInfo(); ok {
		rows = append(rows, mv.Metrics()...)
	}
	rows = append(rows, obs.RuntimeMetrics()...)
	win := s.cfg.fastWindow
	sampler, spans := s.ix.Sampler().Stats(), s.tracer.Stats()
	// The whole-request latency window carries per-bucket exemplars: a
	// bucket whose latency worries a dashboard reader names the trace_id of
	// the last sampled request that paid it, the /debug/requests?trace= key.
	reqLat, exemplars := s.reqLat.ReadWindow(win), s.reqLat.Exemplars()
	rows = append(rows,
		obs.Metric{Name: "trace_sampled_total", Help: "gets traced by the 1-in-N descent sampler",
			Kind: obs.KindCounter, Value: float64(sampler.Sampled)},
		obs.Metric{Name: "trace_slow_total", Help: "sampled gets at or over the slow-op threshold",
			Kind: obs.KindCounter, Value: float64(sampler.Slow)},
		obs.Metric{Name: "span_requests_total", Help: "requests seen by the span tracer",
			Kind: obs.KindCounter, Value: float64(spans.Ops)},
		obs.Metric{Name: "spans_started_total", Help: "request spans started",
			Kind: obs.KindCounter, Value: float64(spans.Started), Stat: "spans_started"},
		obs.Metric{Name: "spans_finished_total", Help: "request spans finished",
			Kind: obs.KindCounter, Value: float64(spans.Finished), Stat: "spans_finished"},
		obs.Metric{Name: "shed_total", Help: "requests refused before any index work",
			Kind: obs.KindCounter, Label: "reason", LabelValue: "batch_too_large", Value: float64(s.shedBatch.Load())},
		obs.Metric{Name: "window_seconds", Help: "span of the fast window the window figures cover",
			Kind: obs.KindGauge, Value: win.Seconds(), Stat: "window_seconds"},
		obs.Metric{Name: "window_requests", Help: "requests over the fast window",
			Kind: obs.KindGauge, Value: float64(s.reqTotal.ReadWindow(win)), Stat: "window_requests"},
		obs.Metric{Name: "window_errors", Help: "5xx responses over the fast window",
			Kind: obs.KindGauge, Value: float64(s.reqErrs.ReadWindow(win)), Stat: "window_errors"},
		obs.Metric{Name: "request_duration_window_seconds", Help: "request latency over the fast window, with trace exemplars",
			Kind: obs.KindHistogram, Hist: &reqLat, Exemplars: &exemplars, Stat: "window_request"},
	)
	// The recent-window counterparts of the lifetime op histograms: the
	// lifetime p99 barely moves when the last 30 s went bad, the windowed
	// one jumps.
	for _, op := range simdtree.Ops {
		if h, ok := s.ix.WindowSnapshot(op, win); ok {
			rows = append(rows, obs.Metric{Name: "op_latency_window_seconds", Help: "per-operation latency over the fast window",
				Kind: obs.KindHistogram, Label: "op", LabelValue: op.String(), Hist: &h, Stat: "op_" + op.String() + "_window"})
		}
	}
	if s.engine != nil {
		rows = append(rows, s.engine.Metrics()...)
	}
	if s.flight != nil {
		rows = append(rows, obs.Metric{Name: "flight_bundles", Help: "diagnostics bundles the flight recorder retains",
			Kind: obs.KindGauge, Value: float64(s.flight.Len())})
	}
	return rows
}

func (s *server) handleStats(w http.ResponseWriter, _ *http.Request) {
	obs.WriteText(w, s.metrics())
}

func (s *server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	obs.WriteProm(w, "segserve", s.metrics())
}

// handleHealthz answers liveness probes; the reported version number is
// the index's highest published MVCC sequence, a cheap way to observe
// write progress from the outside. Liveness is deliberately pure: a
// breaching SLO never makes this endpoint fail — that is /readyz's job —
// so orchestrators don't restart a process that is slow but alive.
func (s *server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if mv, ok := s.ix.MVCCInfo(); ok {
		fmt.Fprintf(w, "ok version=%d\n", mv.CurrentVersion())
		return
	}
	fmt.Fprintln(w, "ok")
}

// handleReadyz answers readiness probes. It always reports the SLO state
// when an engine runs; with -ready-slo it additionally returns 503 while
// the state is Breaching, steering load balancers away from an instance
// that is burning its error budget, without restarting it.
func (s *server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if s.engine == nil {
		fmt.Fprintln(w, "ready")
		return
	}
	st := s.engine.Status()
	if s.cfg.readySLO && st.State == health.Breaching {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintf(w, "breaching %s\n", strings.Join(st.BreachingObjectives(), ","))
		return
	}
	fmt.Fprintf(w, "ready slo=%s\n", st.State)
}

// handleSLO reports the engine's full status — per-objective windowed
// values, burn rates and states — as JSON; 404 when no -slo was given.
func (s *server) handleSLO(w http.ResponseWriter, _ *http.Request) {
	if s.engine == nil {
		http.Error(w, "no SLO engine (start with -slo)", http.StatusNotFound)
		return
	}
	writeJSON(w, s.engine.Status())
}

// handleFlightRecorder lists the retained diagnostics bundles (newest
// first), or serves one in full with ?id=N; 404 when no -slo was given.
func (s *server) handleFlightRecorder(w http.ResponseWriter, r *http.Request) {
	if s.flight == nil {
		http.Error(w, "no flight recorder (start with -slo)", http.StatusNotFound)
		return
	}
	if ids := r.URL.Query().Get("id"); ids != "" {
		id, err := strconv.ParseUint(ids, 10, 64)
		if err != nil {
			http.Error(w, "bad id parameter: "+err.Error(), http.StatusBadRequest)
			return
		}
		b, ok := s.flight.Get(id)
		if !ok {
			http.Error(w, fmt.Sprintf("no bundle %d (retained: %d)", id, s.flight.Len()), http.StatusNotFound)
			return
		}
		writeJSON(w, b)
		return
	}
	writeJSON(w, s.flight.List())
}

// handleSnapshot reports the MVCC publication state — per-shard version
// sequence numbers, currently pinned reader epochs, the versions whose
// retired nodes a pinned reader holds back, and the publish, reclaim
// and node-copy counters — as JSON.
func (s *server) handleSnapshot(w http.ResponseWriter, _ *http.Request) {
	mv, ok := s.ix.MVCCInfo()
	if !ok {
		http.Error(w, "index is not versioned", http.StatusNotFound)
		return
	}
	writeJSON(w, mv)
}

// handleShape walks the index and renders its structural-health report —
// per-level fill, register utilization, the key/pointer/padding byte
// split — plain text by default, the full report with ?format=json.
func (s *server) handleShape(w http.ResponseWriter, r *http.Request) {
	rep := s.ix.Shape()
	if r.URL.Query().Get("format") == "json" {
		writeJSON(w, rep)
		return
	}
	fmt.Fprint(w, rep)
}

// handleExplain runs one traced lookup and renders the descent — plain
// text by default, the full structured trace with ?format=json.
func (s *server) handleExplain(w http.ResponseWriter, r *http.Request) {
	k, ok := keyParam(w, r)
	if !ok {
		return
	}
	tr := simdtree.Explain(s.ix, k)
	if r.URL.Query().Get("format") == "json" {
		writeJSON(w, tr)
		return
	}
	fmt.Fprintln(w, tr)
}

func (s *server) handleTraces(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.ix.Sampler().Sampled())
}

// handleRequests serves the recent request spans (newest first) with the
// tracer's counters — the server-side half of distributed tracing.
// ?trace=<32 hex> narrows to the spans of one trace, the lookup a client
// holding a printed trace_id (segload -trace, a log line, a metrics
// exemplar) performs.
func (s *server) handleRequests(w http.ResponseWriter, r *http.Request) {
	spans := s.tracer.Spans()
	if ts := r.URL.Query().Get("trace"); ts != "" {
		id, err := reqtrace.ParseTraceID(ts)
		if err != nil {
			http.Error(w, "bad trace parameter: "+err.Error(), http.StatusBadRequest)
			return
		}
		matched := spans[:0]
		for _, sp := range spans {
			if sp.TraceID == id {
				matched = append(matched, sp)
			}
		}
		spans = matched
	}
	writeJSON(w, struct {
		Stats reqtrace.TracerStats `json:"stats"`
		Spans []*reqtrace.Span     `json:"spans"`
	}{s.tracer.Stats(), spans})
}

func (s *server) handleSlowOps(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.ix.Sampler().SlowOps())
}

// handleTraceRate reports the sampler's stats; ?every=N adjusts the
// 1-in-N rate (0 disables) and ?slow=D (a Go duration) the slow-op
// threshold, at runtime.
func (s *server) handleTraceRate(w http.ResponseWriter, r *http.Request) {
	sp := s.ix.Sampler()
	q := r.URL.Query()
	if ev := q.Get("every"); ev != "" {
		n, err := strconv.Atoi(ev)
		if err != nil {
			http.Error(w, "bad every parameter: "+err.Error(), http.StatusBadRequest)
			return
		}
		sp.SetRate(n)
	}
	if sl := q.Get("slow"); sl != "" {
		d, err := time.ParseDuration(sl)
		if err != nil {
			http.Error(w, "bad slow parameter: "+err.Error(), http.StatusBadRequest)
			return
		}
		sp.SetSlowThreshold(d)
	}
	writeJSON(w, sp.Stats())
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
