package main

import (
	"math/rand"
	"slices"
)

// randomKeys returns n distinct uniformly random 64-bit keys in
// ascending order — the paper's data-set classes (§5.1).
func randomKeys(rng *rand.Rand, n int) []uint64 {
	seen := make(map[uint64]struct{}, n)
	ks := make([]uint64, 0, n)
	for len(ks) < n {
		k := rng.Uint64()
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = struct{}{}
		ks = append(ks, k)
	}
	slices.Sort(ks)
	return ks
}

// denseKeys returns the keys 0..n-1.
func denseKeys(n int) []uint64 {
	ks := make([]uint64, n)
	for i := range ks {
		ks[i] = uint64(i)
	}
	return ks
}

// spreadKeys maps the dense indexes 0..n-1 order-preservingly across the
// whole 64-bit domain: index i lands at a seeded offset inside the i-th of
// n equal slots. Sharded routes on the top 32 key bits, so dense keys
// below 2^32 all land in shard 0; spread keys fill every shard evenly.
func spreadKeys(rng *rand.Rand, n int) []uint64 {
	slot := ^uint64(0) / uint64(n)
	ks := make([]uint64, n)
	for i := range ks {
		ks[i] = uint64(i)*slot + rng.Uint64()%slot
	}
	return ks
}

// Values encode the key they were written for and the write that wrote
// them, so a reader can check an answer without knowing which of
// several concurrent overwrites it saw: the low tagBits are a hash of
// the key, the bits above count writes (generation 0 is the load).
const tagBits = 40

func keyTag(k uint64) uint64 {
	return (k * 0x9E3779B97F4A7C15) >> (64 - tagBits)
}

func packValue(k, gen uint64) uint64 { return gen<<tagBits | keyTag(k) }

// validValue reports whether v was written for k by a write whose
// generation is at most maxGen.
func validValue(k, v, maxGen uint64) bool {
	return v&(1<<tagBits-1) == keyTag(k) && v>>tagBits <= maxGen
}
