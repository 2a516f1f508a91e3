package bench

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bitmask"
	"repro/internal/btree"
	"repro/internal/concurrent"
	"repro/internal/index"
	"repro/internal/kary"
	"repro/internal/keys"
	"repro/internal/obs"
	"repro/internal/segtree"
	"repro/internal/segtrie"
	"repro/internal/shape"
	"repro/internal/workload"
	"repro/internal/zhouross"
)

// Options tunes the experiment driver.
type Options struct {
	// Probes per measurement (the paper uses 10,000).
	Probes int
	// Rounds per measurement; the fastest round is reported.
	Rounds int
	// Seed for workload generation.
	Seed int64
	// Rec, when non-nil, collects every measurement in machine-readable
	// form alongside the formatted tables.
	Rec *Recorder
	// Metrics adds, per measured structure, one untimed probe pass that
	// sums the lookups' returned §4 costs and records the per-search SIMD
	// comparison / node visit / level figures into Rec. Timed passes are
	// unaffected.
	Metrics bool
}

// recordCounters runs one counted probe pass over wb and records the
// per-search cost-model figures next to the timing measurement with the
// same experiment/structure/class key. No-op unless o.Metrics is set.
func recordCounters[K keys.Key](o Options, wb *Workbench[K], experiment, structure, class string) {
	if !o.Metrics {
		return
	}
	recordSnapshot(o, wb.RunCounted(), len(wb.Probes), experiment, structure, class)
}

// recordSnapshot records counter totals as per-search averages.
func recordSnapshot(o Options, s obs.Cost, probes int, experiment, structure, class string) {
	n := float64(probes)
	for _, m := range []struct {
		metric string
		total  uint64
	}{
		{"simd-comparisons", s.SIMDComparisons},
		{"mask-evaluations", s.MaskEvaluations},
		{"node-visits", s.NodeVisits},
		{"levels-descended", s.LevelsDescended},
		{"scalar-comparisons", s.ScalarComparisons},
	} {
		o.Rec.Record(Measurement{Experiment: experiment, Structure: structure,
			Class: class, Metric: m.metric, Value: float64(m.total) / n, Unit: "per-search"})
	}
}

// countedProbePass runs probes against s once and returns the sum of the
// lookups' §4 costs.
func countedProbePass[K keys.Key](probes []K, s Searcher[K]) obs.Cost {
	var c obs.Cost
	for _, p := range probes {
		_, _, pc := s.GetTraced(p, nil)
		c.Add(pc)
	}
	return c
}

// DefaultOptions mirrors the paper's protocol.
func DefaultOptions() Options {
	return Options{Probes: workload.DefaultProbeCount, Rounds: 3, Seed: 1}
}

// Table2 regenerates the paper's Table 2: k values and parallel
// comparisons per data type for a 128-bit SIMD register.
func Table2() string {
	rows := [][]string{
		{"8-bit", fmt.Sprint(keys.K[uint8]()), fmt.Sprint(keys.Lanes[uint8]())},
		{"16-bit", fmt.Sprint(keys.K[uint16]()), fmt.Sprint(keys.Lanes[uint16]())},
		{"32-bit", fmt.Sprint(keys.K[uint32]()), fmt.Sprint(keys.Lanes[uint32]())},
		{"64-bit", fmt.Sprint(keys.K[uint64]()), fmt.Sprint(keys.Lanes[uint64]())},
	}
	return FormatTable([]string{"Data type", "k value", "Parallel comparisons"}, rows)
}

// Table3 regenerates the paper's Table 3 node characteristics, measuring
// N_S and the k-ary tree height from the actual breadth-first
// linearization.
func Table3() string {
	row := func(name string, nl, k, nodeSize int, stored, r, cacheLines int) []string {
		n := 1
		for i := 0; i < r; i++ {
			n *= k
		}
		return []string{name, fmt.Sprint(k), fmt.Sprint(nl), fmt.Sprint(stored),
			fmt.Sprint(r), fmt.Sprint(n), fmt.Sprint(nodeSize), fmt.Sprint(cacheLines)}
	}
	mk := func(name string, nl, width int, stored, r int) []string {
		k := 16/width + 1
		nodeSize := (nl+1)*8 + stored*width
		cacheLines := (stored*width + 127) / 128
		return row(name, nl, k, nodeSize, stored, r, cacheLines)
	}
	t8 := kary.Build(workload.Ascending[uint8](254), kary.BreadthFirst)
	t16 := kary.Build(workload.Ascending[uint16](404), kary.BreadthFirst)
	t32 := kary.Build(workload.Ascending[uint32](338), kary.BreadthFirst)
	t64 := kary.Build(workload.Ascending[uint64](242), kary.BreadthFirst)
	rows := [][]string{
		mk("8-bit", 254, 1, t8.Stored(), t8.Levels()),
		mk("16-bit", 404, 2, t16.Stored(), t16.Levels()),
		mk("32-bit", 338, 4, t32.Stored(), t32.Levels()),
		mk("64-bit", 242, 8, t64.Stored(), t64.Levels()),
	}
	return FormatTable(
		[]string{"Data type", "k", "N_L", "N_S", "r", "N", "Node size", "Cache lines"},
		rows)
}

// Figure9 regenerates Figure 9: the three bitmask-evaluation algorithms on
// an 8-bit Seg-Tree across the three data-set classes.
func Figure9(o Options) string {
	var rows [][]string
	for _, class := range workload.Classes {
		row := []string{class.String()}
		for _, ev := range bitmask.Evaluators {
			wb := NewWorkbench[uint8](class, o.Probes, o.Seed,
				SegTreeBuilder[uint8](kary.BreadthFirst, ev))
			ns := wb.RunBest(o.Rounds)
			o.Rec.Record(Measurement{Experiment: "fig9", Structure: ev.String(),
				Class: class.String(), Metric: "search", Value: ns, Unit: "ns/op"})
			recordCounters(o, wb, "fig9", ev.String(), class.String())
			row = append(row, Ns(ns))
		}
		rows = append(rows, row)
	}
	return FormatTable(
		[]string{"Data set", "bit-shifting ns/op", "switch-case ns/op", "popcount ns/op"},
		rows)
}

// figure10Row measures one key type across the three classes and three
// inner-node search algorithms.
func figure10Row[K keys.Key](name string, o Options) []string {
	out := []string{}
	for _, class := range workload.Classes {
		binWB := NewWorkbench[K](class, o.Probes, o.Seed, BTreeBuilder[K]())
		bfWB := NewWorkbench[K](class, o.Probes, o.Seed,
			SegTreeBuilder[K](kary.BreadthFirst, bitmask.Popcount))
		dfWB := NewWorkbench[K](class, o.Probes, o.Seed,
			SegTreeBuilder[K](kary.DepthFirst, bitmask.Popcount))
		bin := binWB.RunBest(o.Rounds)
		bf := bfWB.RunBest(o.Rounds)
		df := dfWB.RunBest(o.Rounds)
		for s, ns := range map[string]float64{
			name + "/btree-binary": bin, name + "/segtree-bf": bf, name + "/segtree-df": df,
		} {
			o.Rec.Record(Measurement{Experiment: "fig10", Structure: s,
				Class: class.String(), Metric: "search", Value: ns, Unit: "ns/op"})
		}
		recordCounters(o, binWB, "fig10", name+"/btree-binary", class.String())
		recordCounters(o, bfWB, "fig10", name+"/segtree-bf", class.String())
		recordCounters(o, dfWB, "fig10", name+"/segtree-df", class.String())
		out = append(out,
			fmt.Sprintf("%s | bin %s  bf %s (%s)  df %s (%s)",
				class, Ns(bin), Ns(bf), Speedup(bin, bf), Ns(df), Speedup(bin, df)))
	}
	return append([]string{name}, out...)
}

// Figure10 regenerates Figure 10: binary vs. breadth-first vs. depth-first
// search for all four key widths and all three classes (speedups relative
// to the binary-search B+-Tree).
func Figure10(o Options) string {
	var b strings.Builder
	rows := [][]string{
		figure10Row[uint8]("8-bit", o),
		figure10Row[uint16]("16-bit", o),
		figure10Row[uint32]("32-bit", o),
		figure10Row[uint64]("64-bit", o),
	}
	b.WriteString(FormatTable([]string{"Data type", "Single", "5 MB", "100 MB"}, rows))
	return b.String()
}

// Figure11 regenerates Figure 11: speedup over the binary-search B+-Tree
// for 64-bit keys as tree depth grows — Seg-Tree (both layouts), Seg-Trie
// and optimized Seg-Trie on consecutive keys ("the strength of a Seg-Trie
// arises from storing consecutive keys like tuple ids", §7).
//
// The paper holds "the same number of levels and keys" across all
// variants; with the Table 3 node geometry (242-key nodes ≈ 256-way trie
// fanout) that means n ≈ 256^depth consecutive keys, which is only
// feasible up to depth 3 (depth 4 already needs 4×10⁹ keys — beyond the
// paper's own 8 GB machine as well). We therefore run the exact Table 3
// geometry for depths 1–3 and extend the same mechanism to depth 5 with a
// scaled geometry of 16-key nodes and n = 16^depth (see EXPERIMENTS.md).
func Figure11(o Options, maxKeys int) string {
	part := func(caps int, fanout int, maxDepth int) [][]string {
		var rows [][]string
		for depth := 1; depth <= maxDepth; depth++ {
			n := pow(fanout, depth)
			if n > maxKeys {
				break
			}
			rows = append(rows, figure11Row(o, depth, n, caps))
		}
		return rows
	}
	header := []string{"Depth", "Keys", "B+Tree ns/op", "Seg-Tree BF", "Seg-Tree DF", "Seg-Trie", "Opt. Seg-Trie"}
	out := "Table 3 geometry (242-key nodes, n = 256^depth):\n" +
		FormatTable(header, part(242, 256, 3)) +
		"\nScaled geometry (16-key nodes, n = 16^depth):\n" +
		FormatTable(header, part(16, 16, 5))
	return out
}

func pow(b, e int) int {
	p := 1
	for ; e > 0; e-- {
		p *= b
	}
	return p
}

func figure11Row(o Options, depth, n, caps int) []string {
	rng := rand.New(rand.NewSource(o.Seed))
	ks := workload.Ascending[uint64](n)
	probes := workload.Probes(rng, ks, o.Probes)

	measure := func(s Searcher[uint64]) float64 {
		best := 0.0
		for round := 0; round < o.Rounds; round++ {
			hits := 0
			start := time.Now()
			for _, p := range probes {
				if s.Contains(p) {
					hits++
				}
			}
			el := float64(time.Since(start).Nanoseconds()) / float64(len(probes))
			Sink += hits
			if round == 0 || el < best {
				best = el
			}
		}
		return best
	}

	// counted mirrors recordCounters for the flat structure list here: one
	// untimed, cost-summing probe pass per structure.
	counted := func(structure string, s Searcher[uint64]) {
		if !o.Metrics {
			return
		}
		recordSnapshot(o, countedProbePass(probes, s), len(probes),
			"fig11", structure, fmt.Sprintf("depth=%d", depth))
	}

	vs := make([]uint64, len(ks))
	bcfg := btree.Config{LeafCap: caps, BranchCap: caps}
	baseTree := btree.BulkLoad[uint64, uint64](bcfg, ks, vs)
	base := measure(baseTree)
	segBF := Figure11SegTree(caps, kary.BreadthFirst, ks, vs)
	segDF := Figure11SegTree(caps, kary.DepthFirst, ks, vs)
	trie := segtrie.NewDefault[uint64, uint64]()
	opt := segtrie.NewOptimizedDefault[uint64, uint64]()
	for i, k := range ks {
		trie.Put(k, uint64(i))
		opt.Put(k, uint64(i))
	}
	counted("btree", baseTree)
	counted("segtree-bf", segBF)
	counted("segtree-df", segDF)
	counted("segtrie", trie)
	counted("opt-segtrie", opt)
	return []string{
		fmt.Sprint(depth),
		fmt.Sprint(n),
		Ns(base),
		Speedup(base, measure(segBF)),
		Speedup(base, measure(segDF)),
		Speedup(base, measure(trie)),
		Speedup(base, measure(opt)),
	}
}

// Memory regenerates the abstract's memory claim: key-storage bytes of
// B+-Tree, Seg-Tree, Seg-Trie and optimized Seg-Trie over ~1.6 M
// consecutive 64-bit keys (the paper's 100 MB example), plus total bytes
// including pointers, and the structural-health figures that explain
// them — bytes-per-key, fill degree, SIMD-register utilization, §3.3
// replenishment and §4 level omission — so the BENCH trajectory carries
// footprint data alongside ns/op. The rec sink may be nil.
func Memory(keysCount int, rec *Recorder) string {
	ks := workload.Ascending[uint64](keysCount)
	vs := make([]uint64, len(ks))

	trie := segtrie.NewDefault[uint64, uint64]()
	opt := segtrie.NewOptimizedDefault[uint64, uint64]()
	for i, k := range ks {
		trie.Put(k, uint64(i))
		opt.Put(k, uint64(i))
	}
	baseTree := btree.BulkLoad[uint64, uint64](btree.DefaultConfig[uint64](), ks, vs)
	segTree := segtree.BulkLoad[uint64, uint64](paperConfig[uint64](), ks, vs)
	shapes := []struct {
		name  string
		shape shape.Report
	}{
		{"B+-Tree (binary)", baseTree.Shape()},
		{"Seg-Tree", segTree.Shape()},
		{"Seg-Trie", trie.Shape()},
		{"Optimized Seg-Trie", opt.Shape()},
	}
	baseKeyBytes := index.StatsOf(shapes[0].shape).KeyMemoryBytes

	var rows [][]string
	for _, s := range shapes {
		st := index.StatsOf(s.shape)
		rec.Record(Measurement{Experiment: "memory", Structure: s.name,
			Metric: "key-bytes", Value: float64(st.KeyMemoryBytes), Unit: "bytes"})
		rec.Record(Measurement{Experiment: "memory", Structure: s.name,
			Metric: "total-bytes", Value: float64(st.MemoryBytes), Unit: "bytes"})
		RecordShape(rec, "memory", s.name, s.shape)
		rows = append(rows, []string{
			s.name, fmt.Sprint(st.KeyMemoryBytes),
			fmt.Sprintf("%.2fx", float64(baseKeyBytes)/float64(st.KeyMemoryBytes)),
			fmt.Sprint(st.MemoryBytes),
			fmt.Sprintf("%.2f", s.shape.BytesPerKey),
			fmt.Sprintf("%.3f", s.shape.FillDegree),
			fmt.Sprintf("%.3f", s.shape.RegisterUtilization)})
	}
	return FormatTable([]string{"Structure", "Key bytes", "Key reduction", "Total bytes",
		"Bytes/key", "Fill", "Reg util"}, rows)
}

// RecordShape emits a structure's structural-health figures as BENCH
// measurements: footprint density, fill, register utilization and the
// §3.3/§4 waste-and-savings counters. Gauges whose unit is lower-is-
// better ("bytes/key", padding/replenishment) participate in the
// benchdiff regression gate alongside ns/op.
func RecordShape(rec *Recorder, experiment, structure string, rep shape.Report) {
	for _, m := range []struct {
		metric string
		value  float64
		unit   string
	}{
		{"bytes-per-key", rep.BytesPerKey, "bytes/key"},
		{"fill-degree", rep.FillDegree, "ratio"},
		{"register-utilization", rep.RegisterUtilization, "ratio"},
		{"padding-bytes", float64(rep.PaddingBytes), "bytes"},
		{"replenished-slots", float64(rep.ReplenishedSlots), "slots"},
		{"omitted-levels", float64(rep.OmittedLevels), "levels"},
		{"omitted-savings", float64(rep.OmittedSavingsBytes), "bytes"},
		{"nodes", float64(rep.Nodes), "nodes"},
		{"levels", float64(rep.Levels), "levels"},
	} {
		rec.Record(Measurement{Experiment: experiment, Structure: structure,
			Class: "shape", Metric: m.metric, Value: m.value, Unit: m.unit})
	}
}

// KarySearch measures the §2.2 micro-benchmark: k-ary search (both
// layouts) against binary search and the Zhou-Ross SIMD strategies (§6)
// on flat sorted arrays of growing size.
func KarySearch(o Options, sizes []int) string {
	rng := rand.New(rand.NewSource(o.Seed))
	var rows [][]string
	for _, n := range sizes {
		ks := workload.UniformRandom[uint32](rng, n)
		probes := workload.Probes(rng, ks, o.Probes)
		bf := kary.Build(ks, kary.BreadthFirst)
		df := kary.Build(ks, kary.DepthFirst)
		zr := zhouross.New(ks)

		timeIt := func(fn func(k uint32) int) float64 {
			best := 0.0
			for round := 0; round < o.Rounds; round++ {
				acc := 0
				start := time.Now()
				for _, p := range probes {
					acc += fn(p)
				}
				el := float64(time.Since(start).Nanoseconds()) / float64(len(probes))
				Sink += acc
				if round == 0 || el < best {
					best = el
				}
			}
			return best
		}

		bin := timeIt(func(k uint32) int { return kary.UpperBound(ks, k) })
		bfT := timeIt(func(k uint32) int { return bf.Search(k, bitmask.Popcount) })
		dfT := timeIt(func(k uint32) int { return df.Search(k, bitmask.Popcount) })
		zrB := timeIt(zr.BinarySearch)
		zrH := timeIt(zr.HybridSearch)
		rows = append(rows, []string{
			fmt.Sprint(n), Ns(bin),
			Ns(bfT) + " (" + Speedup(bin, bfT) + ")",
			Ns(dfT) + " (" + Speedup(bin, dfT) + ")",
			Ns(zrB) + " (" + Speedup(bin, zrB) + ")",
			Ns(zrH) + " (" + Speedup(bin, zrH) + ")",
		})
	}
	return FormatTable([]string{"n", "binary ns/op", "k-ary BF", "k-ary DF", "ZR binary", "ZR hybrid"}, rows)
}

// Batch measures batched lookups against per-probe Get for all four
// structures on the 5 MB and 100 MB classes (64-bit keys). Probes are
// drawn with replacement from the loaded keys, batches of 256. GetBatch
// runs the interleaved descent on the Seg-Tree and the B+-Tree, whose
// independent node loads overlap once the working set is out of cache,
// and one Get per probe on the tries.
func Batch(o Options) string {
	return batchOver(o, []workload.Class{workload.FiveMB, workload.HundredMB})
}

func batchOver(o Options, classes []workload.Class) string {
	const batchSize = 256
	var rows [][]string
	for _, class := range classes {
		n := workload.KeysFor[uint64](class)
		ks := workload.Ascending[uint64](n)
		vs := make([]uint64, n)
		rng := rand.New(rand.NewSource(o.Seed))
		probes := workload.Probes(rng, ks, o.Probes)

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
			{"segtree", segtree.BulkLoad[uint64, uint64](paperConfig[uint64](), ks, vs)},
			{"segtrie", trie},
			{"opt-segtrie", opt},
		}
		for _, tg := range targets {
			serial := bestOf(o.Rounds, func() float64 {
				hits := 0
				start := time.Now()
				for _, p := range probes {
					if _, ok := tg.ix.Get(p); ok {
						hits++
					}
				}
				Sink += hits
				return float64(time.Since(start).Nanoseconds()) / float64(len(probes))
			})
			batched := bestOf(o.Rounds, func() float64 {
				hits := 0
				start := time.Now()
				for off := 0; off < len(probes); off += batchSize {
					_, found := tg.ix.GetBatch(probes[off:min(off+batchSize, len(probes))])
					for _, f := range found {
						if f {
							hits++
						}
					}
				}
				Sink += hits
				return float64(time.Since(start).Nanoseconds()) / float64(len(probes))
			})
			o.Rec.Record(Measurement{Experiment: "batch", Structure: tg.name,
				Class: class.String(), Metric: "get-serial", Value: serial, Unit: "ns/op"})
			o.Rec.Record(Measurement{Experiment: "batch", Structure: tg.name,
				Class: class.String(), Metric: "get-batch", Value: batched, Unit: "ns/op"})
			if o.Metrics {
				recordSnapshot(o, countedProbePass[uint64](probes, tg.ix), len(probes),
					"batch", tg.name, class.String())
			}
			rows = append(rows, []string{class.String(), tg.name,
				Ns(serial), Ns(batched), Speedup(serial, batched)})
		}
	}
	return FormatTable(
		[]string{"Data set", "Structure", "Get ns/op", "GetBatch ns/op", "Speedup"}, rows)
}

// bestOf runs fn rounds times and keeps the fastest result.
func bestOf(rounds int, fn func() float64) float64 {
	best := fn()
	for i := 1; i < rounds; i++ {
		if t := fn(); t < best {
			best = t
		}
	}
	return best
}

// Sharded measures concurrent Put throughput of the key-range-sharded
// index against the single global readers-writer lock (concurrent.Locked)
// at 1, 4 and 16 goroutines. Every worker writes uniformly random 64-bit
// keys, so under sharding the writers mostly hit distinct shards and
// proceed in parallel. The inner structure is the cheap-insert B+-Tree
// baseline so the measurement isolates locking, not the Seg-Tree's
// re-linearization cost.
func Sharded(o Options) string {
	opsPerWorker := o.Probes
	if opsPerWorker > 50000 {
		opsPerWorker = 50000
	}
	measure := func(workers int, put func(uint64, uint64) bool) float64 {
		var wg sync.WaitGroup
		start := time.Now()
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				for i := 0; i < opsPerWorker; i++ {
					put(rng.Uint64(), uint64(i))
				}
			}(o.Seed + int64(w))
		}
		wg.Wait()
		return float64(time.Since(start).Nanoseconds()) / float64(workers*opsPerWorker)
	}

	var rows [][]string
	for _, workers := range []int{1, 4, 16} {
		locked := bestOf(o.Rounds, func() float64 {
			l := concurrent.NewLocked[uint64, uint64](btree.NewDefault[uint64, uint64]())
			return measure(workers, l.Put)
		})
		sharded := bestOf(o.Rounds, func() float64 {
			s := index.NewSharded[uint64, uint64](16, func() index.Index[uint64, uint64] {
				return btree.NewDefault[uint64, uint64]()
			})
			return measure(workers, s.Put)
		})
		o.Rec.Record(Measurement{Experiment: "sharded", Structure: "locked",
			Class: fmt.Sprintf("goroutines=%d", workers), Metric: "put", Value: locked, Unit: "ns/op"})
		o.Rec.Record(Measurement{Experiment: "sharded", Structure: "sharded-16",
			Class: fmt.Sprintf("goroutines=%d", workers), Metric: "put", Value: sharded, Unit: "ns/op"})
		rows = append(rows, []string{fmt.Sprint(workers),
			Ns(locked), Ns(sharded), Speedup(locked, sharded)})
	}
	return FormatTable(
		[]string{"Goroutines", "Locked put ns/op", "Sharded-16 put ns/op", "Speedup"}, rows)
}

// Contention measures read latency under a concurrent writer: four
// reader goroutines issue random Gets against a preloaded index while a
// continuous writer publishes mutations, compared with the same readers
// running alone. The global readers-writer lock (concurrent.Locked)
// stalls its readers behind every exclusive writer section; the MVCC
// structures (Versioned, and Sharded whose shards are versioned) pin
// published versions lock-free, so their reader latency should barely
// move. The inner structure is the cheap-insert B+-Tree baseline so the
// measurement isolates the concurrency scheme.
func Contention(o Options) string {
	const readers = 4
	const preload = 1 << 16
	opsPerReader := o.Probes
	if opsPerReader > 50000 {
		opsPerReader = 50000
	}

	type rw interface {
		Get(uint64) (uint64, bool)
		Put(uint64, uint64) bool
	}
	measure := func(mk func() rw, withWriter bool) float64 {
		ix := mk()
		for i := uint64(0); i < preload; i++ {
			ix.Put(i, i)
		}
		var stop atomic.Bool
		var writerWg sync.WaitGroup
		if withWriter {
			writerWg.Add(1)
			go func() {
				defer writerWg.Done()
				rng := rand.New(rand.NewSource(o.Seed + 977))
				for i := uint64(0); !stop.Load(); i++ {
					ix.Put(rng.Uint64()%preload, i)
				}
			}()
		}
		hits := make([]int, readers)
		var wg sync.WaitGroup
		start := time.Now()
		for w := 0; w < readers; w++ {
			wg.Add(1)
			go func(w int, seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				for i := 0; i < opsPerReader; i++ {
					if _, ok := ix.Get(rng.Uint64() % (2 * preload)); ok {
						hits[w]++
					}
				}
			}(w, o.Seed+int64(w))
		}
		wg.Wait()
		el := time.Since(start)
		stop.Store(true)
		writerWg.Wait()
		for _, h := range hits {
			Sink += h
		}
		return float64(el.Nanoseconds()) / float64(readers*opsPerReader)
	}

	targets := []struct {
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
		{"sharded-16", func() rw {
			return index.NewSharded[uint64, uint64](16, func() index.Index[uint64, uint64] {
				return btree.NewDefault[uint64, uint64]()
			})
		}},
	}
	var rows [][]string
	for _, tg := range targets {
		idle := bestOf(o.Rounds, func() float64 { return measure(tg.mk, false) })
		busy := bestOf(o.Rounds, func() float64 { return measure(tg.mk, true) })
		o.Rec.Record(Measurement{Experiment: "contention", Structure: tg.name,
			Class:  fmt.Sprintf("goroutines=%d,writer=off", readers),
			Metric: "get", Value: idle, Unit: "ns/op"})
		o.Rec.Record(Measurement{Experiment: "contention", Structure: tg.name,
			Class:  fmt.Sprintf("goroutines=%d,writer=on", readers),
			Metric: "get", Value: busy, Unit: "ns/op"})
		rows = append(rows, []string{tg.name, Ns(idle), Ns(busy),
			fmt.Sprintf("%+.1f%%", (busy/idle-1)*100)})
	}
	return FormatTable(
		[]string{"Structure", "Readers-only get ns/op", "Under writer ns/op", "Degradation"}, rows)
}
