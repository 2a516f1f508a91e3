package simdtree_test

// Cost of always-on sampled tracing at the rates that matter: no sampler
// attached (histograms and counters only — the sweep's baseline),
// sampler attached but off (adds one atomic pointer load + modulo per
// Get), the recommended production rate of 1-in-1024, and always-on
// (rate 1, every Get allocates and records a full trace). BenchmarkGet is the
// bare-structure reference. Run with:
//
//	go test -run=^$ -bench='BenchmarkGet$|BenchmarkTraceSampling' -benchtime=2s .

import (
	"math/rand"
	"testing"

	simdtree "repro"
)

func traceBenchProbes() []uint64 {
	rng := rand.New(rand.NewSource(42))
	probes := make([]uint64, 4096)
	for i := range probes {
		probes[i] = uint64(rng.Intn(1 << 16))
	}
	return probes
}

func traceBenchTree() simdtree.Index[uint64, uint64] {
	t := simdtree.NewSegTree[uint64, uint64]()
	for i := uint64(0); i < 1<<16; i++ {
		t.Put(i, i)
	}
	return t
}

func runTraceBench(b *testing.B, ix simdtree.Index[uint64, uint64], probes []uint64) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := ix.Get(probes[i%len(probes)]); !ok {
			b.Fatal("miss")
		}
	}
}

func BenchmarkGet(b *testing.B) {
	runTraceBench(b, traceBenchTree(), traceBenchProbes())
}

func BenchmarkTraceSampling(b *testing.B) {
	probes := traceBenchProbes()
	for _, bc := range []struct {
		name string
		rate int
	}{
		{"no-sampler", -1},
		{"off", 0},
		{"1-in-1024", 1024},
		{"always-on", 1},
	} {
		b.Run(bc.name, func(b *testing.B) {
			// Instrumentation stays on (sampling rides on it); the sweep
			// reads against the no-sampler case, which pays histograms and
			// counters only.
			ix := simdtree.WrapInstrumented(traceBenchTree())
			if bc.rate >= 0 {
				ix.EnableSampling(bc.rate, 0)
			}
			runTraceBench(b, ix, probes)
		})
	}
}

// BenchmarkExplain prices one on-demand traced descent, allocations
// included — the cost of a /debug/explain request.
func BenchmarkExplain(b *testing.B) {
	tree := traceBenchTree()
	probes := traceBenchProbes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := simdtree.Explain[uint64, uint64](tree, probes[i%len(probes)])
		if !tr.Found {
			b.Fatal("miss")
		}
	}
}
