package simdtree_test

// Overhead of the instrumentation wrapper: the bare structure against the
// wrapper, which times every Get into its histograms and adds the
// lookup's returned cost to its counters. Run with:
//
//	go test -run=^$ -bench=BenchmarkInstrumentedOverhead -benchtime=2s .

import (
	"math/rand"
	"testing"

	simdtree "repro"
)

func BenchmarkInstrumentedOverhead(b *testing.B) {
	const n = 1 << 16
	rng := rand.New(rand.NewSource(42))
	probes := make([]uint64, 4096)
	for i := range probes {
		probes[i] = uint64(rng.Intn(n))
	}
	build := func() simdtree.Index[uint64, uint64] {
		t := simdtree.NewSegTree[uint64, uint64]()
		for i := uint64(0); i < n; i++ {
			t.Put(i, i)
		}
		return t
	}
	run := func(b *testing.B, ix simdtree.Index[uint64, uint64]) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, ok := ix.Get(probes[i%len(probes)]); !ok {
				b.Fatal("miss")
			}
		}
	}
	b.Run("bare", func(b *testing.B) { run(b, build()) })
	b.Run("instrumented", func(b *testing.B) {
		run(b, simdtree.WrapInstrumented(build()))
	})
}
