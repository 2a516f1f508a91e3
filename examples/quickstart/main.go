// Quickstart: build a Seg-Tree, insert, look up, delete, and range-scan —
// the five-minute tour of the public API.
package main

import (
	"fmt"

	simdtree "repro"
)

func main() {
	// A Seg-Tree maps integer keys to arbitrary values. The key width
	// picks the SIMD geometry: uint32 keys mean k=5, i.e. four keys are
	// compared per emulated SIMD instruction inside every node.
	fmt.Printf("uint32 keys: k=%d, %d parallel comparisons per SIMD instruction\n\n",
		simdtree.KValue[uint32](), simdtree.ParallelComparisons[uint32]())

	tree := simdtree.NewSegTree[uint32, string]()

	// Point inserts. Put reports whether the key was new.
	for i, name := range []string{"alpha", "beta", "gamma", "delta", "epsilon"} {
		tree.Put(uint32(i*10), name)
	}
	tree.Put(25, "interloper")
	fmt.Printf("size after inserts: %d, height: %d\n", tree.Len(), tree.Height())

	// Point lookups run the paper's five-step SIMD compare sequence in
	// every node on the path.
	if v, ok := tree.Get(20); ok {
		fmt.Printf("Get(20) = %q\n", v)
	}
	if _, ok := tree.Get(21); !ok {
		fmt.Println("Get(21) correctly misses")
	}

	// Updates replace in place.
	tree.Put(20, "GAMMA")
	v, _ := tree.Get(20)
	fmt.Printf("after update: Get(20) = %q\n", v)

	// Ordered iteration over the leaves, left to right.
	fmt.Print("ascending: ")
	tree.Ascend(func(k uint32, v string) bool {
		fmt.Printf("%d=%s ", k, v)
		return true
	})
	fmt.Println()

	// Range scans walk the B+-Tree's leaves from the first key in range.
	fmt.Print("scan [10,30]: ")
	tree.Scan(10, 30, func(k uint32, v string) bool {
		fmt.Printf("%d=%s ", k, v)
		return true
	})
	fmt.Println()

	// Deletes rebalance the tree like any B+-Tree.
	tree.Delete(25)
	fmt.Printf("after delete: size %d\n", tree.Len())

	// Bulk loading is the fastest way to build a read-mostly index: all
	// nodes come out completely filled and each node is linearized once.
	n := 1_000_000
	ks := make([]uint32, n)
	vs := make([]string, n)
	for i := range ks {
		ks[i] = uint32(i * 2)
		vs[i] = "v"
	}
	big := simdtree.BulkLoadSegTree(ks, vs)
	// Shape walks the tree once: every leaf sits on its last level.
	rep := big.Shape()
	leaves := rep.LevelFill[len(rep.LevelFill)-1].Nodes
	fmt.Printf("\nbulk-loaded %d keys: height=%d, %d branch + %d leaf nodes, %.1f MB\n",
		big.Len(), rep.Levels, rep.Nodes-leaves, leaves, float64(rep.TotalBytes)/(1<<20))
	if _, ok := big.Get(1_000_000); ok {
		fmt.Println("found key 1,000,000")
	}
}
