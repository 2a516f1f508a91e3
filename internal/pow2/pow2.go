// Package pow2 is the one blessed way the repo sizes its lock-free
// rings. Every mask-indexed ring (trace.Ring — the one pointer ring,
// holding both descent traces and request spans — the obs windowed
// epoch rings, the Versioned epoch-slot array) derives its
// capacity from CeilCap and its index mask from that capacity, so
// `i & (cap-1)` is a bounds proof by construction. The ringmask
// analyzer (internal/analysis/ringmask) closes the loop statically: a
// ring whose mask is not derived from CeilCap (or a power-of-two
// constant) is a diagnostic, as is any ring indexing without the mask.
package pow2

// MaxCap bounds CeilCap so a hostile or buggy capacity request cannot
// overflow the doubling into an infinite loop or an absurd allocation.
// 2^30 slots is far beyond any ring the repo sizes (the largest is the
// Versioned epoch-slot array at 8×GOMAXPROCS).
const MaxCap = 1 << 30

// CeilCap returns the smallest power of two that is >= n and >= min.
// min itself is rounded up to a power of two (so any min is safe), n
// above MaxCap clamps to MaxCap, and n <= min returns min — callers get
// a valid ring capacity for every input, which is the capacity
// validation each ring constructor relies on.
func CeilCap(n, min int) int {
	c := 1
	for c < min {
		c <<= 1
	}
	if n > MaxCap {
		n = MaxCap
	}
	for c < n {
		c <<= 1
	}
	return c
}

// Is reports whether n is a positive power of two — the property every
// ring capacity must hold for `& (n-1)` indexing to be in bounds.
func Is(n int) bool {
	return n > 0 && n&(n-1) == 0
}
