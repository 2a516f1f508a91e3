package simdtree_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"

	simdtree "repro"
)

func ExampleNewSegTree() {
	tree := simdtree.NewSegTree[uint32, string]()
	tree.Put(42, "answer")
	tree.Put(7, "lucky")
	if v, ok := tree.Get(42); ok {
		fmt.Println(v)
	}
	fmt.Println(tree.Len())
	// Output:
	// answer
	// 2
}

func ExampleSegTree_Scan() {
	tree := simdtree.NewSegTree[uint32, int]()
	for i := 0; i < 10; i++ {
		tree.Put(uint32(i*10), i)
	}
	tree.Scan(25, 55, func(k uint32, v int) bool {
		fmt.Println(k, v)
		return true
	})
	// Output:
	// 30 3
	// 40 4
	// 50 5
}

// Scan bounds are inclusive at both ends.
func ExampleSegTree_Scan_inclusive() {
	tree := simdtree.NewSegTree[uint32, string]()
	tree.Put(1, "a")
	tree.Put(2, "b")
	tree.Put(3, "c")
	tree.Scan(2, 3, func(k uint32, v string) bool {
		fmt.Println(k, v)
		return true
	})
	// Output:
	// 2 b
	// 3 c
}

func ExampleBuildKaryTree() {
	// The paper's running example: k=3 for 64-bit keys, so each SIMD
	// comparison tests two separators at once.
	sorted := []int64{1, 2, 3, 4, 5, 6, 7, 8}
	kt := simdtree.BuildKaryTree(sorted, simdtree.BreadthFirst)
	fmt.Println(kt.Linearized())
	fmt.Println(kt.Search(5, simdtree.Popcount)) // first key > 5
	// Output:
	// [3 6 1 2 4 5 7 8]
	// 5
}

func ExampleNewSegTrie() {
	trie := simdtree.NewSegTrie[uint64, string]()
	trie.Put(1000, "tuple-1000")
	trie.Put(1001, "tuple-1001")
	fmt.Println(trie.Levels()) // fixed height: 8 segments for 64-bit keys
	if v, ok := trie.Get(1001); ok {
		fmt.Println(v)
	}
	// Output:
	// 8
	// tuple-1001
}

func ExampleNewOptimizedSegTrie() {
	trie := simdtree.NewOptimizedSegTrie[uint64, int]()
	for i := 0; i < 256; i++ {
		trie.Put(uint64(i), i)
	}
	// Consecutive keys collapse the eight nominal levels into one node.
	rep := trie.Shape()
	fmt.Println(rep.Nodes, rep.Levels, rep.OmittedLevels)
	// Output:
	// 1 1 7
}

func ExampleNewZhouRossList() {
	l := simdtree.NewZhouRossList([]uint32{10, 20, 30, 40, 50})
	fmt.Println(l.BinarySearch(25))     // first index with key > 25
	fmt.Println(l.SequentialSearch(25)) // same answer, different strategy
	// Output:
	// 2
	// 2
}

func ExampleSegTree_Serialize() {
	tree := simdtree.NewSegTree[uint32, uint64]()
	for i := uint32(0); i < 100; i++ {
		tree.Put(i, uint64(i)*2)
	}
	encode := func(w io.Writer, v uint64) error {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		_, err := w.Write(b[:])
		return err
	}
	decode := func(r io.Reader) (uint64, error) {
		var b [8]byte
		if _, err := io.ReadFull(r, b[:]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint64(b[:]), nil
	}
	var buf bytes.Buffer
	if err := tree.Serialize(&buf, encode); err != nil {
		panic(err)
	}
	restored, err := simdtree.DeserializeSegTree[uint32, uint64](&buf, decode)
	if err != nil {
		panic(err)
	}
	v, _ := restored.Get(21)
	fmt.Println(restored.Len(), v)
	// Output:
	// 100 42
}
