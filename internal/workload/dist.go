package workload

// Key-request distributions for the mixed-workload driver
// (internal/driver). The paper's §5.1 generators above produce the *data
// sets* of the evaluation; these choosers produce the *request streams*
// against them: which key index the next operation touches. The three
// shapes are the YCSB core distributions — uniform, zipfian (Gray et
// al.'s skewed generator, the default YCSB skew at theta 0.99) and
// sequential round-robin.

import (
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"
)

// Chooser picks key indexes in [0, N) for a request stream. Choosers are
// safe for concurrent use from many client goroutines: each caller passes
// its own rng, and any internal state is atomic.
type Chooser interface {
	// Next returns the next key index. rng supplies the randomness; a
	// chooser that consumes none (Sequential) ignores it.
	Next(rng *rand.Rand) uint64
}

// Uniform draws every key index with equal probability — YCSB's uniform
// request distribution.
type Uniform struct {
	n int64
}

// NewUniform returns a uniform chooser over [0, n).
func NewUniform(n int) *Uniform {
	if n < 1 {
		panic(fmt.Sprintf("workload: NewUniform needs n >= 1, got %d", n)) //simdtree:allowpanic request-distribution domain validation
	}
	return &Uniform{n: int64(n)}
}

// Next implements Chooser.
func (u *Uniform) Next(rng *rand.Rand) uint64 {
	return uint64(rng.Int63n(u.n))
}

// Zipfian draws key indexes with the zipfian frequency-rank law of Gray
// et al. ("Quickly generating billion-record synthetic databases",
// SIGMOD 1994) — the generator YCSB uses for its skewed core workloads.
// Index 0 is the most popular key, index 1 the second most, and the
// frequency of rank i is proportional to 1/(i+1)^theta. theta in (0, 1);
// YCSB's default skew is 0.99.
//
// All fields are computed at construction and read-only afterwards, so
// one Zipfian may be shared by any number of client goroutines.
type Zipfian struct {
	n     uint64
	alpha float64
	zetan float64
	eta   float64
	top2  float64 // 1 + 0.5^theta: draws below it (scaled by zetan) are rank 0 or 1
}

// NewZipfian returns a zipfian chooser over [0, n) with skew theta. The
// zeta normalization constant is computed once here in O(n).
func NewZipfian(n int, theta float64) *Zipfian {
	if n < 1 {
		panic(fmt.Sprintf("workload: NewZipfian needs n >= 1, got %d", n)) //simdtree:allowpanic request-distribution domain validation
	}
	if theta <= 0 || theta >= 1 {
		panic(fmt.Sprintf("workload: NewZipfian theta %g out of (0, 1)", theta)) //simdtree:allowpanic request-distribution domain validation
	}
	z := &Zipfian{n: uint64(n), alpha: 1 / (1 - theta), top2: 1 + math.Pow(0.5, theta)}
	z.zetan = zeta(uint64(n), theta)
	z.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta(2, theta)/z.zetan)
	return z
}

// zeta returns sum_{i=1..n} 1/i^theta.
func zeta(n uint64, theta float64) float64 {
	var sum float64
	for i := uint64(1); i <= n; i++ {
		sum += 1 / math.Pow(float64(i), theta)
	}
	return sum
}

// Next implements Chooser (Gray et al., Algorithm as used by YCSB's
// ZipfianGenerator).
func (z *Zipfian) Next(rng *rand.Rand) uint64 {
	u := rng.Float64()
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < z.top2 {
		return 1
	}
	idx := uint64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if idx >= z.n {
		idx = z.n - 1
	}
	return idx
}

// Sequential walks the key space round-robin: 0, 1, ..., n-1, 0, ... A
// single shared atomic cursor serves every client goroutine, so any n
// consecutive draws — no matter how they interleave across clients —
// cover each key index exactly once.
type Sequential struct {
	n    uint64
	next atomic.Uint64
}

// NewSequential returns a sequential chooser over [0, n).
func NewSequential(n int) *Sequential {
	if n < 1 {
		panic(fmt.Sprintf("workload: NewSequential needs n >= 1, got %d", n)) //simdtree:allowpanic request-distribution domain validation
	}
	return &Sequential{n: uint64(n)}
}

// Next implements Chooser; rng is ignored.
func (s *Sequential) Next(_ *rand.Rand) uint64 {
	return (s.next.Add(1) - 1) % s.n
}
