package workload

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

func TestUniformRange(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	u := NewUniform(100)
	seen := make(map[uint64]bool)
	for i := 0; i < 10000; i++ {
		k := u.Next(rng)
		if k >= 100 {
			t.Fatalf("Next() = %d, out of [0, 100)", k)
		}
		seen[k] = true
	}
	// With 10k draws over 100 keys, every key should have been touched.
	if len(seen) != 100 {
		t.Errorf("uniform touched %d/100 keys", len(seen))
	}
}

// TestZipfianRankMonotonicity pins the defining property of the zipfian
// request stream: lower ranks are requested more often. Individual
// adjacent ranks can swap under sampling noise, so the check aggregates
// into geometric rank bands and requires strictly decreasing frequency
// across bands, plus a strong head-vs-tail ratio.
func TestZipfianRankMonotonicity(t *testing.T) {
	const n, draws = 1000, 200000
	rng := rand.New(rand.NewSource(42))
	z := NewZipfian(n, 0.99)
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		k := z.Next(rng)
		if k >= n {
			t.Fatalf("Next() = %d, out of [0, %d)", k, n)
		}
		counts[k]++
	}
	bands := [][2]int{{0, 1}, {1, 10}, {10, 100}, {100, 1000}}
	var freq []float64
	for _, b := range bands {
		total := 0
		for i := b[0]; i < b[1]; i++ {
			total += counts[i]
		}
		freq = append(freq, float64(total)/float64(b[1]-b[0]))
	}
	for i := 1; i < len(freq); i++ {
		if freq[i] >= freq[i-1] {
			t.Errorf("band %v mean frequency %.2f not below band %v's %.2f",
				bands[i], freq[i], bands[i-1], freq[i-1])
		}
	}
	if counts[0] < 20*counts[n-1]+20 {
		t.Errorf("rank 0 drawn %d times vs rank %d's %d — skew too weak for theta 0.99",
			counts[0], n-1, counts[n-1])
	}
}

// TestZipfianSharedAcrossGoroutines exercises one shared Zipfian from
// several clients with private rngs — the driver's usage — under the
// race detector.
func TestZipfianSharedAcrossGoroutines(t *testing.T) {
	z := NewZipfian(512, 0.99)
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 10000; i++ {
				if k := z.Next(rng); k >= 512 {
					t.Errorf("Next() = %d out of range", k)
					return
				}
			}
		}(int64(c))
	}
	wg.Wait()
}

// TestSequentialExactCoverage pins the chooser's contract: any n
// consecutive draws cover [0, n) exactly once, in order from a single
// caller.
func TestSequentialExactCoverage(t *testing.T) {
	const n = 257
	s := NewSequential(n)
	for round := 0; round < 3; round++ {
		for want := uint64(0); want < n; want++ {
			if got := s.Next(nil); got != want {
				t.Fatalf("round %d: draw %d = %d, want %d", round, want, got, want)
			}
		}
	}
}

// TestSequentialConcurrentCoverage verifies the shared-cursor guarantee:
// n draws split across goroutines still hit every index exactly once.
func TestSequentialConcurrentCoverage(t *testing.T) {
	const n, clients = 4096, 8
	s := NewSequential(n)
	var counts [n]int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			local := make([]uint64, 0, n/clients)
			for i := 0; i < n/clients; i++ {
				local = append(local, s.Next(nil))
			}
			mu.Lock()
			for _, k := range local {
				counts[k]++
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	for k, c := range counts {
		if c != 1 {
			t.Fatalf("index %d drawn %d times, want exactly 1", k, c)
		}
	}
}

func TestChooserConstructorValidation(t *testing.T) {
	for name, fn := range map[string]func(){
		"uniform n=0":        func() { NewUniform(0) },
		"zipfian n=0":        func() { NewZipfian(0, 0.99) },
		"zipfian theta=0":    func() { NewZipfian(10, 0) },
		"zipfian theta=1":    func() { NewZipfian(10, 1) },
		"sequential n=0":     func() { NewSequential(0) },
		"zipfian theta=-0.5": func() { NewZipfian(10, -0.5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: constructor did not panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestZipfianHoistedPowMatchesPerDraw: hoisting 1 + 0.5^θ into
// NewZipfian leaves every draw bit-identical to computing it per draw,
// over 10^5 draws from a fixed seed for three skews.
func TestZipfianHoistedPowMatchesPerDraw(t *testing.T) {
	for _, theta := range []float64{0.5, 0.99, 0.2} {
		z := NewZipfian(100_000, theta)
		perDraw := func(rng *rand.Rand) uint64 {
			u := rng.Float64()
			uz := u * z.zetan
			if uz < 1 {
				return 0
			}
			if uz < 1+math.Pow(0.5, theta) {
				return 1
			}
			idx := uint64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
			if idx >= z.n {
				idx = z.n - 1
			}
			return idx
		}
		got, want := rand.New(rand.NewSource(42)), rand.New(rand.NewSource(42))
		for i := 0; i < 100_000; i++ {
			if g, w := z.Next(got), perDraw(want); g != w {
				t.Fatalf("theta %g draw %d: %d, per-draw formula %d", theta, i, g, w)
			}
		}
	}
}
