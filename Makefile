# Development targets for the SIMD tree-structure reproduction.
#
#   make check       - vet + build + race-enabled tests + fuzz smoke
#   make test        - plain test run (tier-1 gate)
#   make bench       - segbench JSON + tracer-off and span-off overhead
#                      gates (<2%)
#   make bench-diff  - compare BENCH_segbench.json against the committed
#                      baseline; non-zero exit on ns/op or bytes/key regression
#   make bench-baseline - re-measure and overwrite BENCH_baseline.json
#   make stress      - long race-enabled mixed read/write run against the
#                      MVCC snapshot machinery (STRESS_OPS per worker)
#   make loadtest    - race-built segload smoke: the same mixed Spec
#                      against the in-process sharded MVCC index and a
#                      live segserve over HTTP (graceful-shutdown path
#                      included)
#   make fuzz        - 5 s smoke run of every fuzz target
#   make examples    - run every program under examples/; fails on a
#                      non-zero exit
#   make fmt         - fail if any file is not gofmt-clean
#   make analyze     - build cmd/simdvet and run the repo's own analyzers
#                      (hotalloc, nopanic, traceguard, evalmask, atomicmix,
#                      publishguard, ringmask) over ./... via go vet
#                      -vettool, then govulncheck
#   make invariants  - full test suite with -race and -tags=invariants:
#                      the debug-build assertions in internal/invariants
#                      (MVCC writer reuse, epoch-pin validation,
#                      single-owner rotation) are compiled in and armed,
#                      plus an assertion-armed MVCC stress run
#   make staticcheck - staticcheck ./... (skips when the tool is absent)
#   make govulncheck - govulncheck ./... (skips when the tool is absent)
#   make trace-e2e   - request-span round-trip smoke (race-built): a
#                      traced workload through segclient against a live
#                      handler must show one trace ID at every tier
#   make trace-demo  - render traced descents with cmd/treedump
#   make serve       - run the observability HTTP server (cmd/segserve)
#   make loc         - non-test Go lines per package and in total

GO ?= go
FUZZTIME ?= 5s
STRESS_OPS ?= 50000

# Pinned lint-tool versions: CI installs exactly these so that a new
# upstream release cannot break or silently weaken the gate. Bump
# deliberately, in a commit that also fixes whatever the newer tool
# flags.
STATICCHECK_VERSION ?= 2025.1.1

# Every fuzz target in the module, as "package:Target" pairs — go test
# allows only one -fuzz pattern per invocation.
FUZZ_TARGETS = \
	./internal/index:FuzzGetBatch \
	./internal/index:FuzzVersionedOps \
	./internal/kary:FuzzNodeSearchKernels \
	./internal/kary:FuzzInsertDelete \
	./internal/btree:FuzzTreeOps \
	./internal/segtree:FuzzDeserialize \
	./internal/segtrie:FuzzTrieOps \
	./internal/simd:FuzzCompareKernels

SERVE_ARGS ?= -structure opt-segtrie -shards 16 -preload 100000

# The mixed-workload smoke spec: every op type, zipfian skew, 8 clients
# against the snapshot-publishing sharded index — time-bounded so the
# whole loadtest stays around five seconds.
LOADTEST_SPEC ?= read=70,write=20,scan=5,batch=5;dist=zipfian:0.99;keys=5000;clients=8;dur=2s;warmup=200ms
LOADTEST_ADDR ?= 127.0.0.1:18080

# The workload rows recorded into BENCH JSON next to segbench's
# microbenchmarks: op-bounded, so baseline and candidate always measure
# the same number of operations.
WORKLOAD_SPEC ?= read=70,write=20,scan=5,batch=5;dist=zipfian:0.99;keys=100000;clients=8;ops=200000

.PHONY: check vet fmt build test race stress invariants fuzz examples loadtest bench bench-diff bench-baseline analyze simdvet staticcheck govulncheck trace-e2e trace-demo serve loc clean

check: vet fmt build race fuzz analyze

vet:
	$(GO) vet ./...

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Long mixed-load run over the MVCC snapshot machinery under the race
# detector: concurrent writers rotate versions while readers pin
# snapshots and assert isolation invariants, goroutines interleaving
# lookups on instrumented indexes must attribute every cost count to the
# index that paid it, a batch racing a writer must read each shard from
# one pinned version, and the seed scripts of the MVCC model check
# (FuzzVersionedOps) replay against a map model. STRESS_OPS scales the
# per worker operation count of the MVCC tests (the short default inside
# the tests is sized for `make race`; CI runs this target with a much
# larger budget).
stress:
	SIMDTREE_STRESS_OPS=$(STRESS_OPS) $(GO) test -race -count=2 -timeout 20m \
		-run 'TestMVCCStressMixedLoad|TestSnapshotUnderConcurrentWrites|TestInstrumentedCountersConcurrentAttribution|TestGetBatchPinsEachShardOnce|FuzzVersionedOps' \
		./internal/index/ -v

# Debug build with runtime invariant checks compiled in (DESIGN.md §5c):
# the -tags=invariants build arms the assertions in internal/invariants —
# the MVCC writer reusing only the version one op behind the published
# one and catching it up to the published content, announce-then-validate
# epoch pinning, single-owner window rotation — across the full suite
# under the race detector, then re-runs the MVCC stress tests and the
# MVCC model check with the same assertions armed. SIMDTREE_STRESS_OPS scales the stress budget the
# same way `make stress` does.
invariants:
	$(GO) test -race -tags=invariants ./...
	SIMDTREE_STRESS_OPS=$(STRESS_OPS) $(GO) test -race -tags=invariants -count=1 -timeout 20m \
		-run 'TestMVCCStressMixedLoad|TestSnapshotUnderConcurrentWrites|TestInstrumentedCountersConcurrentAttribution|TestGetBatchPinsEachShardOnce|FuzzVersionedOps' \
		./internal/index/

fuzz:
	@set -e; for t in $(FUZZ_TARGETS); do \
		pkg=$${t%:*}; fn=$${t#*:}; \
		echo "fuzz $$pkg $$fn"; \
		$(GO) test $$pkg -run '^$$' -fuzz "^$$fn$$" -fuzztime $(FUZZTIME); \
	done

# Run each example program end to end (a few seconds in total). `build`
# only compiles them, so a panic in one would otherwise go unnoticed.
examples:
	@set -e; for d in examples/*/; do \
		echo "example $$d"; \
		$(GO) run ./$$d > /dev/null; \
	done

# Generous ceilings for the loadtest SLO gate: race-built binaries on
# shared CI hardware are slow, so this catches collapses (and any error),
# not regressions — benchdiff gates the trajectory.
LOADTEST_SLO ?= read_p99<250ms,error_rate<0.05

# Mixed-workload smoke under the race detector: the identical Spec runs
# against the in-process index and against a freshly started segserve
# over HTTP through internal/segclient. The server is stopped with
# SIGTERM so the run also exercises graceful drain. Both runs gate on
# LOADTEST_SLO; the server evaluates the same objectives continuously
# and spills flight-recorder bundles to bin/flight on breach (CI uploads
# them as an artifact when the gate trips).
loadtest:
	$(GO) build -race -o bin/segload ./cmd/segload
	$(GO) build -race -o bin/segserve ./cmd/segserve
	./bin/segload -target inproc -structure segtree -shards 8 -sync versioned \
		-spec '$(LOADTEST_SPEC)' -slo '$(LOADTEST_SLO)'
	@./bin/segserve -addr $(LOADTEST_ADDR) -log-level warn \
		-slo '$(LOADTEST_SLO)' -flight-dir bin/flight & pid=$$!; \
	trap 'kill $$pid 2>/dev/null' EXIT; \
	./bin/segload -target http -addr http://$(LOADTEST_ADDR) -wait 10s \
		-spec '$(LOADTEST_SPEC)' -slo '$(LOADTEST_SLO)'; rc=$$?; \
	kill -TERM $$pid && wait $$pid; \
	trap - EXIT; exit $$rc

bench:
	$(GO) run ./cmd/segbench -json BENCH_segbench.json
	$(GO) run ./cmd/segload -structure segtree -shards 8 -sync versioned \
		-experiment mixed -spec '$(WORKLOAD_SPEC)' -json-append BENCH_segbench.json
	$(GO) test -tags overheadgate -run '^Test(TracerOff|SpanOff)OverheadGate$$' -count=1 -v .

# Regression gate on the measurement trajectory. Timings on shared
# hardware are noisy, so the default thresholds are generous; footprint
# metrics (bytes/key) are deterministic and gate tighter.
bench-diff: BENCH_segbench.json
	$(GO) run ./cmd/benchdiff -old BENCH_baseline.json -new BENCH_segbench.json

BENCH_segbench.json:
	$(GO) run ./cmd/segbench -json BENCH_segbench.json
	$(GO) run ./cmd/segload -structure segtree -shards 8 -sync versioned \
		-experiment mixed -spec '$(WORKLOAD_SPEC)' -json-append BENCH_segbench.json

bench-baseline:
	$(GO) run ./cmd/segbench -json BENCH_baseline.json
	$(GO) run ./cmd/segload -structure segtree -shards 8 -sync versioned \
		-experiment mixed -spec '$(WORKLOAD_SPEC)' -json-append BENCH_baseline.json

# The repo's own static-analysis suite (DESIGN.md §5c). simdvet is a
# go-vet-compatible driver for seven repo-specific analyzers: hotalloc
# (zero-alloc //simdtree:hotpath kernels), nopanic (no panics reachable
# from exported API without //simdtree:allowpanic), traceguard
# (*trace.Trace params nil-guarded before use), evalmask (bitmask
# switches/tables cover the mask space or carry a bounds proof),
# atomicmix (no mixed atomic/plain access to the same field),
# publishguard (//simdtree:published values frozen after an atomic
# store) and ringmask (lock-free rings prove pow2 capacity and mask
# every slot index). This is a hard gate: any diagnostic fails the
# build.
analyze: simdvet
	./bin/simdvet -list
	$(GO) vet -vettool=$(CURDIR)/bin/simdvet ./...
	@$(MAKE) --no-print-directory govulncheck

simdvet:
	$(GO) build -o bin/simdvet ./cmd/simdvet

# staticcheck is not vendored; install the pinned version with
#   go install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION))"; \
	fi

# govulncheck needs network access to the vulnerability database, so it
# only runs where it is installed (CI); locally it degrades to a notice.
govulncheck:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping (go install golang.org/x/vuln/cmd/govulncheck@latest)"; \
	fi

# Distributed-tracing round trip under the race detector: segload's
# driver traces every op, segclient rides the traceparent over the wire,
# and the segserve handler must surface the SAME trace ID in its log,
# its span ring (/debug/requests) and its /metrics exemplars.
trace-e2e:
	$(GO) test ./cmd/segserve -race -count=1 -v \
		-run '^(TestTraceE2E|TestRequestSpans|TestLogFormats)$$'
	$(GO) test ./cmd/segload ./internal/segclient -race -count=1 \
		-run 'Trace|Traceparent'

# Two traced descents through the shared tracing kernel: breadth-first
# and depth-first linearised k-ary trees, one hit and one miss each.
trace-demo:
	$(GO) run ./cmd/treedump -n 26 -layout bf -search 9
	$(GO) run ./cmd/treedump -n 26 -layout bf -search 99
	$(GO) run ./cmd/treedump -n 11 -layout df -search 7

serve:
	$(GO) run ./cmd/segserve $(SERVE_ARGS)

# Non-test Go line count (every line, as wc -l counts it) per package
# directory and in total. _test.go files, testdata/ fixtures and the
# separate perfbench module are left out. CHANGES.md tracks the total
# next to ns/op.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' \
		! -path './perfbench/*' ! -path './.*' -exec wc -l {} + | \
	awk '$$2 != "total" { d = $$2; sub("/[^/]*$$", "", d); n[d] += $$1; t += $$1 } \
		END { for (d in n) printf "%7d  %s\n", n[d], d | "sort -k2"; close("sort -k2"); \
		printf "%7d  total\n", t }'

# BENCH_baseline.json (the benchdiff reference) and the per-PR
# BENCH_pr*.json runs are committed and must survive a clean.
clean:
	find . -maxdepth 1 -name 'BENCH_*.json' ! -name 'BENCH_baseline.json' ! -name 'BENCH_pr*.json' -delete
