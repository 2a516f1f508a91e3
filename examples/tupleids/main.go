// Tuple-ID index: the paper's flagship Seg-Trie scenario (§4). A column
// store assigns consecutive 64-bit tuple IDs; an index from tuple ID to
// row position must be compact and fast. Consecutive keys are the
// optimized Seg-Trie's best case: all upper trie levels collapse into
// stored prefixes, lookups touch one or two nodes, and key storage shrinks
// by ~8x versus a B+-Tree because 64-bit keys become 8-bit partial keys.
package main

import (
	"fmt"
	"time"

	simdtree "repro"
)

const tuples = 1_638_400 // the paper's ~1.6 M keys / 100 MB example

func main() {
	ids := make([]uint64, tuples)
	rows := make([]uint32, tuples)
	for i := range ids {
		ids[i] = uint64(i)
		rows[i] = uint32(i)
	}

	// The baseline the paper compares against.
	start := time.Now()
	base := simdtree.BulkLoadBPlusTree(ids, rows,
		simdtree.WithLeafCap(242), simdtree.WithBranchCap(242))
	fmt.Printf("B+-Tree      built in %8v\n", time.Since(start).Round(time.Millisecond))

	// The optimized Seg-Trie; consecutive appends take the fast path.
	start = time.Now()
	trie := simdtree.NewOptimizedSegTrie[uint64, uint32]()
	for i, id := range ids {
		trie.Put(id, rows[i])
	}
	fmt.Printf("Opt.Seg-Trie built in %8v\n\n", time.Since(start).Round(time.Millisecond))

	bs := base.IndexStats()
	ts := trie.IndexStats()
	fmt.Printf("B+-Tree:       height %d, key memory %7.2f MB, total %7.2f MB\n",
		bs.Height, mb(bs.KeyMemoryBytes), mb(bs.MemoryBytes))
	fmt.Printf("Opt.Seg-Trie:  height %d, key memory %7.2f MB, total %7.2f MB\n",
		ts.Height, mb(ts.KeyMemoryBytes), mb(ts.MemoryBytes))
	fmt.Printf("key-memory reduction: %.1fx (paper reports 8x)\n\n",
		float64(bs.KeyMemoryBytes)/float64(ts.KeyMemoryBytes))

	// Random point lookups.
	probe := func(name string, get func(uint64) (uint32, bool)) {
		const lookups = 200_000
		var x uint64 = 88172645463325252 // xorshift state
		hits := 0
		start := time.Now()
		for i := 0; i < lookups; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			if _, ok := get(x % tuples); ok {
				hits++
			}
		}
		el := time.Since(start)
		fmt.Printf("%-13s %d lookups in %8v (%5.1f ns/op, %d hits)\n",
			name, lookups, el.Round(time.Millisecond),
			float64(el.Nanoseconds())/lookups, hits)
	}
	probe("B+-Tree:", base.Get)
	probe("Opt.Seg-Trie:", trie.Get)

	// The trie stays ordered: range scans work too.
	sum := uint64(0)
	trie.Scan(1000, 1010, func(id uint64, row uint32) bool {
		sum += uint64(row)
		return true
	})
	fmt.Printf("\nscan rows of tuples [1000,1010]: row-sum %d\n", sum)

	// Growth: appending one key past a 256-boundary adds at most one trie
	// level (§4's "inserting 256 increases the optimized Seg-Trie by one
	// level").
	before := trie.IndexStats().Height
	trie.Put(1<<40, 0)
	fmt.Printf("height before/after far-away insert: %d/%d\n", before, trie.IndexStats().Height)
}

func mb(b int64) float64 { return float64(b) / (1 << 20) }
