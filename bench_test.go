// Benchmarks regenerating every table and figure of the paper's evaluation
// (§5), plus ablations of the design choices called out in DESIGN.md.
// cmd/segbench produces the same measurements as formatted tables; these
// testing.B targets integrate them with `go test -bench`.
package simdtree_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"sync"
	"testing"

	simdtree "repro"
	"repro/internal/bench"
	"repro/internal/bitmask"
	"repro/internal/btree"
	"repro/internal/concurrent"
	"repro/internal/gentrie"
	"repro/internal/index"
	"repro/internal/kary"
	"repro/internal/keys"
	"repro/internal/segtree"
	"repro/internal/segtrie"
	"repro/internal/simd"
	"repro/internal/workload"
	"repro/internal/zhouross"
)

var sink int

// probeLoop drives b.N probes through a prepared workbench.
func probeLoop[K keys.Key](b *testing.B, wb *bench.Workbench[K]) {
	b.Helper()
	b.ResetTimer()
	hits := 0
	for i := 0; i < b.N; i++ {
		j := i % len(wb.Probes)
		if wb.Trees[wb.TreePick[j]].Contains(wb.Probes[j]) {
			hits++
		}
	}
	sink += hits
}

// BenchmarkFigure9 measures the three bitmask-evaluation algorithms on an
// 8-bit Seg-Tree across the paper's three data-set classes (Figure 9).
func BenchmarkFigure9(b *testing.B) {
	for _, ev := range bitmask.Evaluators {
		for _, class := range workload.Classes {
			b.Run(fmt.Sprintf("%s/%s", ev, class), func(b *testing.B) {
				wb := bench.NewWorkbench[uint8](class, workload.DefaultProbeCount, 1,
					bench.SegTreeBuilder[uint8](kary.BreadthFirst, ev))
				probeLoop(b, wb)
			})
		}
	}
}

// figure10 benchmarks one key type: binary-search B+-Tree against the
// Seg-Tree with both layouts across the three classes (Figure 10).
func figure10[K keys.Key](b *testing.B, name string) {
	algos := []struct {
		name  string
		build func([]K) bench.Searcher[K]
	}{
		{"binary", bench.BTreeBuilder[K]()},
		{"kary-bf", bench.SegTreeBuilder[K](kary.BreadthFirst, bitmask.Popcount)},
		{"kary-df", bench.SegTreeBuilder[K](kary.DepthFirst, bitmask.Popcount)},
	}
	for _, class := range workload.Classes {
		for _, algo := range algos {
			b.Run(fmt.Sprintf("%s/%s/%s", name, class, algo.name), func(b *testing.B) {
				wb := bench.NewWorkbench[K](class, workload.DefaultProbeCount, 1, algo.build)
				probeLoop(b, wb)
			})
		}
	}
}

// BenchmarkFigure10 measures Seg-Tree search for all four key widths
// (Figure 10).
func BenchmarkFigure10(b *testing.B) {
	figure10[uint8](b, "8bit")
	figure10[uint16](b, "16bit")
	figure10[uint32](b, "32bit")
	figure10[uint64](b, "64bit")
}

// BenchmarkFigure11 measures the trie-versus-tree comparison for 64-bit
// consecutive keys as tree depth grows (Figure 11). The Table 3 geometry
// covers depths 1–2 here (depth 3 needs 16.7 M keys — run cmd/segbench
// for it); the scaled 16-key-node geometry extends the same mechanism to
// depth 4.
func BenchmarkFigure11(b *testing.B) {
	geometry := func(label string, caps, fanout, maxDepth, maxKeys int) {
		for depth := 1; depth <= maxDepth; depth++ {
			n := 1
			for i := 0; i < depth; i++ {
				n *= fanout
			}
			if n > maxKeys {
				break
			}
			rng := rand.New(rand.NewSource(int64(depth)))
			ks := workload.Ascending[uint64](n)
			vs := make([]uint64, len(ks))
			probes := workload.Probes(rng, ks, workload.DefaultProbeCount)

			run := func(name string, s bench.Searcher[uint64]) {
				b.Run(fmt.Sprintf("%s/depth%d/%s", label, depth, name), func(b *testing.B) {
					b.ResetTimer()
					hits := 0
					for i := 0; i < b.N; i++ {
						if s.Contains(probes[i%len(probes)]) {
							hits++
						}
					}
					sink += hits
				})
			}

			run("btree-binary", btree.BulkLoad[uint64, uint64](btree.Config{LeafCap: caps, BranchCap: caps}, ks, vs))
			run("segtree-bf", bench.Figure11SegTree(caps, kary.BreadthFirst, ks, vs))
			run("segtree-df", bench.Figure11SegTree(caps, kary.DepthFirst, ks, vs))
			trie := segtrie.NewDefault[uint64, uint64]()
			opt := segtrie.NewOptimizedDefault[uint64, uint64]()
			for i, k := range ks {
				trie.Put(k, uint64(i))
				opt.Put(k, uint64(i))
			}
			run("segtrie", trie)
			run("opt-segtrie", opt)
		}
	}
	geometry("table3", 242, 256, 3, 1<<17)
	geometry("scaled", 16, 16, 4, 1<<17)
}

// karyFlat benchmarks the §2.2 micro-comparison on a flat sorted list for
// one key type: binary search versus k-ary search in both layouts.
func karyFlat[K keys.Key](b *testing.B, name string, n int) {
	rng := rand.New(rand.NewSource(5))
	var ks []K
	if w := keys.Width[K](); w <= 2 && n >= 1<<(8*w) {
		ks = workload.FullDomain[K]()
	} else {
		ks = workload.UniformRandom[K](rng, n)
	}
	probes := workload.Probes(rng, ks, workload.DefaultProbeCount)
	bf := kary.Build(ks, kary.BreadthFirst)
	df := kary.Build(ks, kary.DepthFirst)

	b.Run(name+"/binary", func(b *testing.B) {
		acc := 0
		for i := 0; i < b.N; i++ {
			acc += kary.UpperBound(ks, probes[i%len(probes)])
		}
		sink += acc
	})
	b.Run(name+"/kary-bf", func(b *testing.B) {
		acc := 0
		for i := 0; i < b.N; i++ {
			acc += bf.Search(probes[i%len(probes)], bitmask.Popcount)
		}
		sink += acc
	})
	b.Run(name+"/kary-df", func(b *testing.B) {
		acc := 0
		for i := 0; i < b.N; i++ {
			acc += df.Search(probes[i%len(probes)], bitmask.Popcount)
		}
		sink += acc
	})
}

// BenchmarkKarySearch is the §2.2 micro-benchmark: k-ary versus binary
// search on flat sorted arrays, per key width at the Table 3 node sizes.
func BenchmarkKarySearch(b *testing.B) {
	karyFlat[uint8](b, "8bit-node", 256)
	karyFlat[uint16](b, "16bit-node", 404)
	karyFlat[uint32](b, "32bit-node", 338)
	karyFlat[uint64](b, "64bit-node", 242)
	karyFlat[uint32](b, "32bit-64k", 65536)
	karyFlat[uint64](b, "64bit-64k", 65536)
}

// BenchmarkAblationEqualityCheck measures the §3.1 equality-test extension
// the paper discusses and expects not to pay off on flat k-ary trees.
func BenchmarkAblationEqualityCheck(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	ks := workload.UniformRandom[uint32](rng, 338)
	probes := workload.Probes(rng, ks, workload.DefaultProbeCount)
	bf := kary.Build(ks, kary.BreadthFirst)
	b.Run("greater-than-only", func(b *testing.B) {
		acc := 0
		for i := 0; i < b.N; i++ {
			acc += bf.Search(probes[i%len(probes)], bitmask.Popcount)
		}
		sink += acc
	})
	b.Run("with-equality-exit", func(b *testing.B) {
		acc := 0
		for i := 0; i < b.N; i++ {
			r, _ := bf.SearchWithEquality(probes[i%len(probes)], bitmask.Popcount)
			acc += r
		}
		sink += acc
	})
}

// BenchmarkAblationSWARvsScalar quantifies what the SWAR substrate buys
// over a scalar per-lane loop for the 16-lane 8-bit compare sequence.
func BenchmarkAblationSWARvsScalar(b *testing.B) {
	var buf [16]byte
	rng := rand.New(rand.NewSource(7))
	rng.Read(buf[:])
	search := simd.NewSearch(1, 0x41)
	searchReg := simd.Set1Epi8(0x41 ^ 0x80)
	b.Run("fused-swar", func(b *testing.B) {
		acc := 0
		for i := 0; i < b.N; i++ {
			buf[0] = byte(i)
			acc += int(search.Mask(buf[:]))
		}
		sink += acc
	})
	b.Run("composed-swar", func(b *testing.B) {
		acc := 0
		for i := 0; i < b.N; i++ {
			buf[0] = byte(i)
			reg := simd.Load(buf[:])
			acc += int(simd.MoveMaskEpi8(simd.CmpGtEpi8(reg, searchReg)))
		}
		sink += acc
	})
	b.Run("scalar-loop", func(b *testing.B) {
		acc := 0
		for i := 0; i < b.N; i++ {
			buf[0] = byte(i)
			reg := simd.Load(buf[:])
			acc += int(simd.MoveMaskEpi8(simd.RefCmpGt(1, reg, searchReg)))
		}
		sink += acc
	})
}

// BenchmarkAblationNodeSearchStrategies compares the classic inner-node
// search strategies (§1): sequential, binary and k-ary, on one Table 3
// node of 32-bit keys.
func BenchmarkAblationNodeSearchStrategies(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	ks := workload.UniformRandom[uint32](rng, 338)
	probes := workload.Probes(rng, ks, workload.DefaultProbeCount)
	bf := kary.Build(ks, kary.BreadthFirst)
	b.Run("sequential", func(b *testing.B) {
		acc := 0
		for i := 0; i < b.N; i++ {
			acc += kary.SequentialUpperBound(ks, probes[i%len(probes)])
		}
		sink += acc
	})
	b.Run("binary", func(b *testing.B) {
		acc := 0
		for i := 0; i < b.N; i++ {
			acc += kary.UpperBound(ks, probes[i%len(probes)])
		}
		sink += acc
	})
	b.Run("kary", func(b *testing.B) {
		acc := 0
		for i := 0; i < b.N; i++ {
			acc += bf.Search(probes[i%len(probes)], bitmask.Popcount)
		}
		sink += acc
	})
}

// BenchmarkAblationTrieFastPaths compares trie lookups that hit the §4
// full-node fast path (dense root, direct indexing) against lookups that
// run the 17-ary search (sparse root).
func BenchmarkAblationTrieFastPaths(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	dense := segtrie.NewDefault[uint16, int]()
	for i := 0; i < 65536; i += 7 { // touches all 256 root partial keys
		dense.Put(uint16(i), i)
	}
	sparse := segtrie.NewDefault[uint16, int]()
	for i := 0; i < 65536; i += 520 { // 126 root partial keys: searched
		sparse.Put(uint16(i), i)
	}
	denseProbes := workload.Probes(rng, workload.FullDomain[uint16](), workload.DefaultProbeCount)
	b.Run("full-node-direct-index", func(b *testing.B) {
		hits := 0
		for i := 0; i < b.N; i++ {
			if dense.Contains(denseProbes[i%len(denseProbes)]) {
				hits++
			}
		}
		sink += hits
	})
	b.Run("searched-node", func(b *testing.B) {
		hits := 0
		for i := 0; i < b.N; i++ {
			if sparse.Contains(denseProbes[i%len(denseProbes)]) {
				hits++
			}
		}
		sink += hits
	})
}

// BenchmarkBitmaskEvaluators microbenchmarks the three §2.1 algorithms in
// isolation on all lane widths.
func BenchmarkBitmaskEvaluators(b *testing.B) {
	for _, ev := range bitmask.Evaluators {
		for _, w := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%s/width%d", ev, w), func(b *testing.B) {
				acc := 0
				c := 16 / w
				for i := 0; i < b.N; i++ {
					mask := bitmask.SwitchPointMask(i%(c+1), w)
					acc += ev.Evaluate(mask, w)
				}
				sink += acc
			})
		}
	}
}

// BenchmarkSegTrieUpdates measures the trie's write paths (ascending
// tuple-ID appends versus random inserts), documenting the §3.2 reordering
// cost on the trie side.
func BenchmarkSegTrieUpdates(b *testing.B) {
	b.Run("ascending-append", func(b *testing.B) {
		b.ReportAllocs()
		tr := segtrie.NewOptimizedDefault[uint64, int]()
		for i := 0; i < b.N; i++ {
			tr.Put(uint64(i), i)
		}
	})
	b.Run("random-insert", func(b *testing.B) {
		b.ReportAllocs()
		rng := rand.New(rand.NewSource(10))
		tr := segtrie.NewOptimizedDefault[uint64, int]()
		for i := 0; i < b.N; i++ {
			tr.Put(rng.Uint64(), i)
		}
	})
}

// BenchmarkSegTreeUpdates measures the Seg-Tree's write paths: the
// continuous-filling fast path versus reordering random inserts and
// deletes (§3.2).
func BenchmarkSegTreeUpdates(b *testing.B) {
	b.Run("ascending-append", func(b *testing.B) {
		b.ReportAllocs()
		tr := segtree.NewDefault[uint64, int]()
		for i := 0; i < b.N; i++ {
			tr.Put(uint64(i), i)
		}
	})
	b.Run("random-insert", func(b *testing.B) {
		b.ReportAllocs()
		rng := rand.New(rand.NewSource(11))
		tr := segtree.NewDefault[uint64, int]()
		for i := 0; i < b.N; i++ {
			tr.Put(rng.Uint64(), i)
		}
	})
	b.Run("baseline-random-insert", func(b *testing.B) {
		b.ReportAllocs()
		rng := rand.New(rand.NewSource(11))
		tr := btree.NewDefault[uint64, int]()
		for i := 0; i < b.N; i++ {
			tr.Put(rng.Uint64(), i)
		}
	})
	// Deletes a third of a bulk-loaded tree's keys in random order, then
	// reloads it with the timer stopped. Bulk loading fills every leaf,
	// so no leaf falls to half full and borrows or merges: the row
	// prices the descent and DeleteAt's in-place shift.
	b.Run("random-delete", func(b *testing.B) {
		b.ReportAllocs()
		rng := rand.New(rand.NewSource(11))
		ks := make([]uint64, 100_000)
		for i := range ks {
			ks[i] = rng.Uint64()
		}
		slices.Sort(ks)
		ks = slices.Compact(ks)
		vs, order := make([]int, len(ks)), slices.Clone(ks)
		var tr *segtree.Tree[uint64, int]
		for i := 0; i < b.N; i++ {
			j := i % (len(ks) / 3)
			if j == 0 {
				b.StopTimer()
				tr = segtree.BulkLoad(segtree.DefaultConfig[uint64](), ks, vs)
				rng.Shuffle(len(order), func(a, c int) { order[a], order[c] = order[c], order[a] })
				b.StartTimer()
			}
			tr.Delete(order[j])
		}
	})
	// The same deletes from a tree filled by ascending Puts, which leave
	// every leaf at half capacity: each delete below that borrows one key
	// from a sibling, or merges.
	b.Run("random-delete-appended", func(b *testing.B) {
		b.ReportAllocs()
		rng := rand.New(rand.NewSource(11))
		ks := make([]uint64, 100_000)
		for i := range ks {
			ks[i] = rng.Uint64()
		}
		slices.Sort(ks)
		ks = slices.Compact(ks)
		order := slices.Clone(ks)
		var tr *segtree.Tree[uint64, int]
		for i := 0; i < b.N; i++ {
			j := i % (len(ks) / 3)
			if j == 0 {
				b.StopTimer()
				tr = segtree.NewDefault[uint64, int]()
				for v, k := range ks {
					tr.Put(k, v)
				}
				rng.Shuffle(len(order), func(a, c int) { order[a], order[c] = order[c], order[a] })
				b.StartTimer()
			}
			tr.Delete(order[j])
		}
	})
}

// BenchmarkZhouRossComparison compares the paper's k-ary search against
// the three Zhou-Ross SIMD strategies it cites as related work (§6), on a
// flat sorted array of 32-bit keys.
func BenchmarkZhouRossComparison(b *testing.B) {
	for _, n := range []int{338, 65536} {
		rng := rand.New(rand.NewSource(12))
		ks := workload.UniformRandom[uint32](rng, n)
		probes := workload.Probes(rng, ks, workload.DefaultProbeCount)
		zr := zhouross.New(ks)
		kt := kary.Build(ks, kary.BreadthFirst)
		run := func(name string, fn func(uint32) int) {
			b.Run(fmt.Sprintf("n%d/%s", n, name), func(b *testing.B) {
				acc := 0
				for i := 0; i < b.N; i++ {
					acc += fn(probes[i%len(probes)])
				}
				sink += acc
			})
		}
		run("scalar-binary", zr.ScalarSearch)
		run("zr-sequential", zr.SequentialSearch)
		run("zr-binary", zr.BinarySearch)
		run("zr-hybrid", zr.HybridSearch)
		run("kary", func(v uint32) int { return kt.Search(v, bitmask.Popcount) })
	}
}

// BenchmarkParallelSearch measures read-only probe throughput across
// goroutine counts — the §7 future-work extension. On a single-core host
// it degenerates to overhead measurement; on multi-core hosts it shows
// read scaling.
func BenchmarkParallelSearch(b *testing.B) {
	ks := workload.Ascending[uint64](1 << 20)
	vs := make([]uint64, len(ks))
	tr := segtree.BulkLoad[uint64, uint64](segtree.DefaultConfig[uint64](), ks, vs)
	rng := rand.New(rand.NewSource(13))
	probes := workload.Probes(rng, ks, workload.DefaultProbeCount)
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i += len(probes) {
				sink += concurrent.ParallelSearch[uint64, uint64](tr, probes, workers)
			}
		})
	}
}

// BenchmarkSerialization measures snapshot write and restore throughput.
func BenchmarkSerialization(b *testing.B) {
	ks := workload.Ascending[uint64](1 << 17)
	vs := make([]uint64, len(ks))
	tr := segtree.BulkLoad[uint64, uint64](segtree.DefaultConfig[uint64](), ks, vs)
	encode := func(w io.Writer, v uint64) error {
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], v)
		_, err := w.Write(buf[:])
		return err
	}
	decode := func(r io.Reader) (uint64, error) {
		var buf [8]byte
		if _, err := io.ReadFull(r, buf[:]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint64(buf[:]), nil
	}
	var snapshot bytes.Buffer
	if err := tr.Serialize(&snapshot, encode); err != nil {
		b.Fatal(err)
	}
	b.Run("serialize", func(b *testing.B) {
		b.SetBytes(int64(snapshot.Len()))
		for i := 0; i < b.N; i++ {
			var buf bytes.Buffer
			if err := tr.Serialize(&buf, encode); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("deserialize", func(b *testing.B) {
		b.SetBytes(int64(snapshot.Len()))
		for i := 0; i < b.N; i++ {
			if _, err := segtree.Deserialize[uint64, uint64](bytes.NewReader(snapshot.Bytes()), decode); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkGeneralizedTrieVsSegTrie measures the §6 contrast against the
// Boehm et al. generalized trie: direct-indexed full-fanout nodes versus
// 17-ary-searched compact nodes, on dense and sparse 64-bit key sets.
func BenchmarkGeneralizedTrieVsSegTrie(b *testing.B) {
	cases := []struct {
		name string
		gen  func(rng *rand.Rand, i int) uint64
	}{
		{"dense", func(_ *rand.Rand, i int) uint64 { return uint64(i) }},
		{"sparse", func(rng *rand.Rand, _ int) uint64 { return rng.Uint64() }},
	}
	const n = 200000
	for _, c := range cases {
		rng := rand.New(rand.NewSource(14))
		gen := gentrie.New[uint64, int]()
		seg := segtrie.NewDefault[uint64, int]()
		opt := segtrie.NewOptimizedDefault[uint64, int]()
		loaded := make([]uint64, 0, n)
		for i := 0; i < n; i++ {
			k := c.gen(rng, i)
			gen.Put(k, i)
			seg.Put(k, i)
			opt.Put(k, i)
			loaded = append(loaded, k)
		}
		probes := workload.Probes(rng, loaded, workload.DefaultProbeCount)
		run := func(name string, contains func(uint64) bool) {
			b.Run(c.name+"/"+name, func(b *testing.B) {
				hits := 0
				for i := 0; i < b.N; i++ {
					if contains(probes[i%len(probes)]) {
						hits++
					}
				}
				sink += hits
			})
		}
		run("generalized", gen.Contains)
		run("segtrie", seg.Contains)
		run("opt-segtrie", opt.Contains)
	}
}

// BenchmarkRangeScan measures ordered iteration throughput: the B+-Tree
// leaf walk (paper §1: the sequence set of leaves "speedup sequential
// processing"; here walked along a root-to-leaf stack, since path copying
// has no leaf links) against the trie walks, scanning 1000-key windows.
func BenchmarkRangeScan(b *testing.B) {
	const n = 1 << 20
	ks := workload.Ascending[uint64](n)
	vs := make([]uint64, n)
	base := btree.BulkLoad[uint64, uint64](btree.DefaultConfig[uint64](), ks, vs)
	seg := segtree.BulkLoad[uint64, uint64](segtree.DefaultConfig[uint64](), ks, vs)
	trie := segtrie.NewDefault[uint64, uint64]()
	opt := segtrie.NewOptimizedDefault[uint64, uint64]()
	for i, k := range ks {
		trie.Put(k, uint64(i))
		opt.Put(k, uint64(i))
	}
	const window = 1000
	run := func(name string, scan func(lo, hi uint64, fn func(uint64, uint64) bool)) {
		b.Run(name, func(b *testing.B) {
			acc := uint64(0)
			for i := 0; i < b.N; i++ {
				lo := uint64((i * 7919) % (n - window))
				scan(lo, lo+window-1, func(k, v uint64) bool {
					acc += v
					return true
				})
			}
			sink += int(acc)
		})
	}
	run("btree", base.Scan)
	run("segtree", seg.Scan)
	run("segtrie", trie.Scan)
	run("opt-segtrie", opt.Scan)
}

// BenchmarkGetBatch measures batched lookups against per-probe Get for
// all four structures on the 5 MB and 100 MB classes (64-bit keys, probes
// drawn with replacement). b=N is GetBatchInto on batches of N into
// reused buffers: the interleaved descent on the Seg-Tree and the
// B+-Tree, whose independent node loads overlap once the working set is
// out of cache, and one Get per probe on the tries.
func BenchmarkGetBatch(b *testing.B) {
	for _, class := range []workload.Class{workload.FiveMB, workload.HundredMB} {
		// Each class builds its trees inside its own sub-benchmark, so a
		// -bench filter on one class skips the other's set-up.
		b.Run(class.String(), func(b *testing.B) { benchmarkGetBatchClass(b, class) })
	}
}

func benchmarkGetBatchClass(b *testing.B, class workload.Class) {
	n := workload.KeysFor[uint64](class)
	ks := workload.Ascending[uint64](n)
	vs := make([]uint64, n)
	rng := rand.New(rand.NewSource(16))
	probes := workload.Probes(rng, ks, 1<<14)

	trie := segtrie.NewDefault[uint64, uint64]()
	opt := segtrie.NewOptimizedDefault[uint64, uint64]()
	for i, k := range ks {
		trie.Put(k, uint64(i))
		opt.Put(k, uint64(i))
	}
	targets := []struct {
		name string
		ix   index.Index[uint64, uint64]
	}{
		{"btree", btree.BulkLoad[uint64, uint64](btree.DefaultConfig[uint64](), ks, vs)},
		{"segtree", segtree.BulkLoad[uint64, uint64](segtree.DefaultConfig[uint64](), ks, vs)},
		{"segtrie", trie},
		{"opt-segtrie", opt},
	}
	vals, found := make([]uint64, 256), make([]bool, 256)
	for _, tg := range targets {
		b.Run(tg.name+"/get-serial", func(b *testing.B) {
			hits := 0
			for i := 0; i < b.N; i++ {
				if _, ok := tg.ix.Get(probes[i%len(probes)]); ok {
					hits++
				}
			}
			sink += hits
		})
		for _, batch := range []int{2, 4, 8, 16, 64, 256} {
			b.Run(fmt.Sprintf("%s/b=%d", tg.name, batch), func(b *testing.B) {
				hits := 0
				for i := 0; i < b.N; i += batch {
					off := i % (len(probes) - batch)
					tg.ix.GetBatchInto(probes[off:off+batch], vals, found)
					for _, f := range found[:batch] {
						if f {
							hits++
						}
					}
				}
				sink += hits
			})
		}
	}
}

// BenchmarkShardedGetBatch prices one 16-key batch against the 16 Gets
// it replaces on the composition perfbench's lookup workload serves: a
// Seg-Tree in each of 16 MVCC-versioned key-range shards holding 32,768
// random 64-bit keys. Every op is 16 keys; "into" reuses its output
// buffers, "batch" allocates them.
func BenchmarkShardedGetBatch(b *testing.B) {
	const n, batch = 32_768, 16
	rng := rand.New(rand.NewSource(1))
	ks := workload.UniformRandom[uint64](rng, n)
	ix := simdtree.NewIndex[uint64, uint64](
		simdtree.WithStructure(simdtree.StructureSegTree), simdtree.WithShards(16))
	for i, k := range ks {
		ix.Put(k, uint64(i))
	}
	probes := workload.Probes(rng, ks, 1<<14)
	vals, found := make([]uint64, batch), make([]bool, batch)
	b.Run("gets", func(b *testing.B) {
		b.ReportAllocs()
		hits := 0
		for i := 0; i < b.N; i++ {
			off := i * batch % (len(probes) - batch)
			for _, k := range probes[off : off+batch] {
				if _, ok := ix.Get(k); ok {
					hits++
				}
			}
		}
		sink += hits
	})
	b.Run("batch", func(b *testing.B) {
		b.ReportAllocs()
		hits := 0
		for i := 0; i < b.N; i++ {
			off := i * batch % (len(probes) - batch)
			_, found := ix.GetBatch(probes[off : off+batch])
			for _, f := range found {
				if f {
					hits++
				}
			}
		}
		sink += hits
	})
	b.Run("into", func(b *testing.B) {
		b.ReportAllocs()
		hits := 0
		for i := 0; i < b.N; i++ {
			off := i * batch % (len(probes) - batch)
			ix.GetBatchInto(probes[off:off+batch], vals, found)
			for _, f := range found {
				if f {
					hits++
				}
			}
		}
		sink += hits
	})
}

// BenchmarkShardedLoad prices perfbench's two load shapes on the
// composition it serves, a Seg-Tree in each of 16 MVCC-versioned
// key-range shards: 32,768 random 64-bit keys Put in ascending order
// (lookup's set-up) and the dense keys 0..99,999 Put in shuffled order
// (update's). One op is one whole load into a fresh index.
func BenchmarkShardedLoad(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	ascending := workload.UniformRandom[uint64](rng, 32_768)
	shuffled := workload.Ascending[uint64](100_000)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	for _, load := range []struct {
		name string
		ks   []uint64
	}{{"ascending-32768", ascending}, {"shuffled-100000", shuffled}} {
		b.Run(load.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ix := simdtree.NewIndex[uint64, uint64](
					simdtree.WithStructure(simdtree.StructureSegTree), simdtree.WithShards(16))
				for _, k := range load.ks {
					ix.Put(k, k)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(load.ks)), "ns/put")
		})
	}
}

// BenchmarkShardedPut compares concurrent Put throughput of the
// key-range-sharded index (16 shards, per-shard RW locks) against the
// single global lock of LockedMap at 1, 4 and 16 writer goroutines over
// uniformly random 64-bit keys. The inner structure is the B+-Tree
// baseline: its cheap inserts keep the measurement about lock
// contention, not about the Seg-Tree's per-node re-linearization cost
// (which at ~26 µs per random insert would swamp any locking effect).
func BenchmarkShardedPut(b *testing.B) {
	run := func(name string, workers int, mk func() interface{ Put(uint64, uint64) bool }) {
		b.Run(fmt.Sprintf("%s/goroutines%d", name, workers), func(b *testing.B) {
			m := mk()
			var wg sync.WaitGroup
			per := b.N/workers + 1
			b.ResetTimer()
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(seed))
					for i := 0; i < per; i++ {
						m.Put(rng.Uint64(), uint64(i))
					}
				}(int64(w + 1))
			}
			wg.Wait()
		})
	}
	for _, workers := range []int{1, 4, 16} {
		run("locked", workers, func() interface{ Put(uint64, uint64) bool } {
			return concurrent.NewLocked[uint64, uint64](btree.NewDefault[uint64, uint64]())
		})
		run("sharded16", workers, func() interface{ Put(uint64, uint64) bool } {
			return index.NewSharded[uint64, uint64](16, func() index.Index[uint64, uint64] {
				return btree.NewDefault[uint64, uint64]()
			})
		})
	}
}

// BenchmarkGetUnderWrites measures read latency while a continuous
// writer publishes mutations — the scenario the MVCC snapshot layer
// exists for. Readers (RunParallel) issue random Gets against a
// preloaded index; the "writes" variants run one background writer
// mutating random preloaded keys for the whole measurement. Under the
// global readers-writer lock every exclusive writer section stalls the
// read fleet; the versioned and sharded indexes pin published versions
// lock-free, so their reads should barely degrade. cmd/segbench
// -experiment contention records the same comparison into BENCH JSON
// for the benchdiff gate.
func BenchmarkGetUnderWrites(b *testing.B) {
	const preload = 1 << 16
	type rw interface {
		Get(uint64) (uint64, bool)
		Put(uint64, uint64) bool
	}
	builders := []struct {
		name string
		mk   func() rw
	}{
		{"locked", func() rw {
			return concurrent.NewLocked[uint64, uint64](btree.NewDefault[uint64, uint64]())
		}},
		{"versioned", func() rw {
			return index.NewVersioned[uint64, uint64](func() index.Index[uint64, uint64] {
				return btree.NewDefault[uint64, uint64]()
			})
		}},
		{"sharded16", func() rw {
			return index.NewSharded[uint64, uint64](16, func() index.Index[uint64, uint64] {
				return btree.NewDefault[uint64, uint64]()
			})
		}},
	}
	for _, bd := range builders {
		for _, writes := range []bool{false, true} {
			name := bd.name + "/idle"
			if writes {
				name = bd.name + "/writes"
			}
			b.Run(name, func(b *testing.B) {
				ix := bd.mk()
				for i := uint64(0); i < preload; i++ {
					ix.Put(i, i)
				}
				stop := make(chan struct{})
				var writerWg sync.WaitGroup
				if writes {
					writerWg.Add(1)
					go func() {
						defer writerWg.Done()
						rng := rand.New(rand.NewSource(977))
						for i := uint64(0); ; i++ {
							select {
							case <-stop:
								return
							default:
							}
							ix.Put(rng.Uint64()%preload, i)
						}
					}()
				}
				b.ResetTimer()
				b.RunParallel(func(pb *testing.PB) {
					rng := rand.New(rand.NewSource(int64(b.N)))
					hits := 0
					for pb.Next() {
						if _, ok := ix.Get(rng.Uint64() % (2 * preload)); ok {
							hits++
						}
					}
					_ = hits
				})
				b.StopTimer()
				close(stop)
				writerWg.Wait()
			})
		}
	}
}

// BenchmarkBatchedLookup compares one-at-a-time Get with the
// level-synchronized GetBatch on a memory-bound 100 MB working set. The
// batched descent overlaps independent node misses, which is where the
// emulated-SIMD Seg-Tree recovers the ground it loses to the binary
// baseline in the serial Figure 10 measurements.
func BenchmarkBatchedLookup(b *testing.B) {
	n := workload.KeysFor[uint64](workload.HundredMB)
	ks := workload.Ascending[uint64](n)
	vs := make([]uint64, n)
	seg := segtree.BulkLoad[uint64, uint64](segtree.DefaultConfig[uint64](), ks, vs)
	base := btree.BulkLoad[uint64, uint64](btree.DefaultConfig[uint64](), ks, vs)
	rng := rand.New(rand.NewSource(15))
	probes := workload.Probes(rng, ks, 1<<14)
	const batch = 64

	b.Run("segtree-serial", func(b *testing.B) {
		hits := 0
		for i := 0; i < b.N; i++ {
			if seg.Contains(probes[i%len(probes)]) {
				hits++
			}
		}
		sink += hits
	})
	b.Run("segtree-batched", func(b *testing.B) {
		hits := 0
		for i := 0; i < b.N; i += batch {
			off := (i / batch * batch) % (len(probes) - batch)
			_, found := seg.GetBatch(probes[off : off+batch])
			for _, f := range found {
				if f {
					hits++
				}
			}
		}
		sink += hits
	})
	b.Run("btree-serial", func(b *testing.B) {
		hits := 0
		for i := 0; i < b.N; i++ {
			if base.Contains(probes[i%len(probes)]) {
				hits++
			}
		}
		sink += hits
	})
	b.Run("btree-batched", func(b *testing.B) {
		hits := 0
		for i := 0; i < b.N; i += batch {
			off := (i / batch * batch) % (len(probes) - batch)
			_, found := base.GetBatch(probes[off : off+batch])
			for _, f := range found {
				if f {
					hits++
				}
			}
		}
		sink += hits
	})
}

// BenchmarkSegTreeGet is the bare Seg-Tree point lookup with the default
// configuration (depth-first, popcount) on random uint64 keys loaded in
// random order, probed with present keys in random order: the structure
// descent with nothing wrapped around it.
func BenchmarkSegTreeGet(b *testing.B) {
	for _, n := range []int{2048, 32768} {
		rng := rand.New(rand.NewSource(11))
		ks := workload.UniformRandom[uint64](rng, n)
		rng.Shuffle(len(ks), func(i, j int) { ks[i], ks[j] = ks[j], ks[i] })
		tree := segtree.New[uint64, int](segtree.DefaultConfig[uint64]())
		for i, k := range ks {
			tree.Put(k, i)
		}
		probes := workload.Probes(rng, ks, workload.DefaultProbeCount)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			hits := 0
			for i := 0; i < b.N; i++ {
				if _, ok := tree.Get(probes[i%len(probes)]); ok {
					hits++
				}
			}
			sink += hits
		})
	}
}

// BenchmarkBaselineGet is BenchmarkSegTreeGet for the baseline B+-Tree:
// the same keys, load order and probes, searched by binary search. Its
// descent hands the node search a search register it never fills.
func BenchmarkBaselineGet(b *testing.B) {
	for _, n := range []int{2048, 32768} {
		rng := rand.New(rand.NewSource(11))
		ks := workload.UniformRandom[uint64](rng, n)
		rng.Shuffle(len(ks), func(i, j int) { ks[i], ks[j] = ks[j], ks[i] })
		tree := btree.NewDefault[uint64, int]()
		for i, k := range ks {
			tree.Put(k, i)
		}
		probes := workload.Probes(rng, ks, workload.DefaultProbeCount)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			hits := 0
			for i := 0; i < b.N; i++ {
				if _, ok := tree.Get(probes[i%len(probes)]); ok {
					hits++
				}
			}
			sink += hits
		})
	}
}
