//go:build overheadgate

package simdtree_test

// Timing gate asserting the tracer's zero-cost-when-disabled claim: with
// the sampler attached but idle (rate 0 — the production state between
// samples), a Get must cost within 2% of the same instrumented wrapper
// with no sampler at all. That isolates the tracing addition — one
// atomic pointer load per Get — from the wrapper's own pre-existing
// overhead, which observability_bench_test.go bounds separately at 5%
// of the bare structure. Timing assertions flake under load, so this
// runs only with the overheadgate build tag — from `make bench`, never
// in tier-1:
//
//	go test -tags overheadgate -run '^TestTracerOffOverheadGate$' -count=1 .

import (
	"context"
	"testing"
	"time"

	simdtree "repro"
	"repro/internal/health"
	"repro/internal/obs"
)

const (
	gateRuns     = 5   // best-of-N to shrug off scheduler noise
	gateSlackPct = 2.0 // the required <2% bound
)

func bestNsPerOp(f func(b *testing.B)) float64 {
	best := 0.0
	for i := 0; i < gateRuns; i++ {
		r := testing.Benchmark(f)
		ns := float64(r.T.Nanoseconds()) / float64(r.N)
		if best == 0 || ns < best {
			best = ns
		}
	}
	return best
}

func TestTracerOffOverheadGate(t *testing.T) {
	probes := traceBenchProbes()
	bare := traceBenchTree()
	noSampler := simdtree.WrapInstrumented(traceBenchTree())
	samplerOff := simdtree.WrapInstrumented(traceBenchTree())
	samplerOff.EnableSampling(0, 0) // attached but idle

	// Windowed metrics run on BOTH compared indexes, so the gate still
	// isolates the tracer's cost — and pins that the serving configuration
	// (windows attached, SLO engine evaluating in the background, as
	// segserve runs with -slo) leaves the <2% tracer-off bound intact.
	noSampler.EnableWindows(time.Second, 8)
	samplerOff.EnableWindows(time.Second, 8)
	objectives, err := health.ParseObjectives("get_p99<1s")
	if err != nil {
		t.Fatal(err)
	}
	// The background work must hit both indexes identically — rotating or
	// probing only one side would skew exactly the comparison the gate
	// makes.
	engine, err := health.NewEngine(health.Config{
		Objectives: objectives,
		Probe: func(window time.Duration) health.Sample {
			s := health.Sample{Ops: map[string]obs.HistogramSnapshot{}}
			if h, ok := noSampler.WindowSnapshot(simdtree.OpGet, window); ok {
				s.Ops["get"] = h
			}
			if h, ok := samplerOff.WindowSnapshot(simdtree.OpGet, window); ok {
				merged := s.Ops["get"]
				merged.Merge(h)
				s.Ops["get"] = merged
			}
			return s
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	engineDone := make(chan struct{})
	go func() {
		defer close(engineDone)
		engine.Run(ctx, 100*time.Millisecond, func() {
			noSampler.RotateWindows()
			samplerOff.RotateWindows()
		})
	}()

	bareNs := bestNsPerOp(func(b *testing.B) { runTraceBench(b, bare, probes) })
	baseNs := bestNsPerOp(func(b *testing.B) { runTraceBench(b, noSampler, probes) })
	offNs := bestNsPerOp(func(b *testing.B) { runTraceBench(b, samplerOff, probes) })

	cancel()
	<-engineDone
	if engine.Status().Evaluations == 0 {
		t.Fatal("SLO engine never evaluated during the measurement")
	}

	overhead := (offNs - baseNs) / baseNs * 100
	t.Logf("bare %.1f ns/op, instrumented %.1f ns/op, instrumented+sampler-off %.1f ns/op, tracer overhead %+.2f%% (windows on, SLO engine evaluating, %d evaluations)",
		bareNs, baseNs, offNs, overhead, engine.Status().Evaluations)
	if overhead > gateSlackPct {
		t.Fatalf("tracer-off overhead %.2f%% exceeds %.1f%% (no sampler %.1f ns/op, sampler off %.1f ns/op)",
			overhead, gateSlackPct, baseNs, offNs)
	}
}
