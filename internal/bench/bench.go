// Package bench is the measurement harness behind cmd/segbench and the
// root-level benchmarks: it rebuilds the paper's experimental setup (§5.1)
// — bulk-loaded trees of the Single / 5 MB / 100 MB classes, 10,000 random
// probes, average time per search — and provides the builders and table
// formatting shared by every experiment.
//
// For 8- and 16-bit key types the paper fills the entire domain; a single
// tree then cannot reach the 5 MB / 100 MB working-set sizes with distinct
// keys, so those classes are modelled as a forest of domain-filling trees
// probed uniformly — the same working-set size and random access pattern,
// preserving the cache behaviour the classes exist to expose (documented
// in DESIGN.md).
package bench

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/internal/bitmask"
	"repro/internal/btree"
	"repro/internal/kary"
	"repro/internal/keys"
	"repro/internal/obs"
	"repro/internal/segtree"
	"repro/internal/segtrie"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Searcher is the point-lookup interface every tree in this repository
// satisfies; the experiments time Contains calls through it and count
// the §4 costs its GetTraced returns.
type Searcher[K keys.Key] interface {
	Contains(K) bool
	GetTraced(K, *trace.Trace) (uint64, bool, obs.Cost)
}

// Sink defeats dead-code elimination of the probe loops.
var Sink int

// Workbench holds one experiment's loaded trees and probe plan.
type Workbench[K keys.Key] struct {
	Trees    []Searcher[K]
	Probes   []K
	TreePick []int32 // which tree each probe hits
}

// NewWorkbench bulk-loads the data-set class into one or more trees via
// build and prepares probeCount random probes of loaded keys.
func NewWorkbench[K keys.Key](c workload.Class, probeCount int, seed int64,
	build func([]K) Searcher[K]) *Workbench[K] {

	rng := rand.New(rand.NewSource(seed))
	perTree := workload.KeysFor[K](c)
	var ks []K
	if w := keys.Width[K](); w <= 2 && perTree >= (1<<(8*w)) {
		ks = workload.FullDomain[K]()
	} else {
		ks = workload.Ascending[K](perTree)
	}
	treeCount := workload.TreesFor[K](c)
	w := &Workbench[K]{
		Trees:    make([]Searcher[K], treeCount),
		Probes:   workload.Probes(rng, ks, probeCount),
		TreePick: make([]int32, probeCount),
	}
	for i := range w.Trees {
		w.Trees[i] = build(ks)
	}
	for i := range w.TreePick {
		w.TreePick[i] = int32(rng.Intn(treeCount))
	}
	return w
}

// Run times one pass over all probes and returns the average nanoseconds
// per search.
func (w *Workbench[K]) Run() float64 {
	hits := 0
	start := time.Now()
	for i, p := range w.Probes {
		if w.Trees[w.TreePick[i]].Contains(p) {
			hits++
		}
	}
	elapsed := time.Since(start)
	Sink += hits
	return float64(elapsed.Nanoseconds()) / float64(len(w.Probes))
}

// RunCounted runs one untimed probe pass and returns the sum of the
// lookups' §4 costs. Counted passes are kept separate from timed ones so
// the summing never contaminates ns/op figures.
func (w *Workbench[K]) RunCounted() obs.Cost {
	var c obs.Cost
	for i, p := range w.Probes {
		_, _, pc := w.Trees[w.TreePick[i]].GetTraced(p, nil)
		c.Add(pc)
	}
	return c
}

// RunBest runs the probe pass `rounds` times and returns the fastest
// average — the usual defence against scheduler noise.
func (w *Workbench[K]) RunBest(rounds int) float64 {
	best := w.Run()
	for i := 1; i < rounds; i++ {
		if t := w.Run(); t < best {
			best = t
		}
	}
	return best
}

// BTreeBuilder bulk-loads the baseline B+-Tree with binary inner search.
func BTreeBuilder[K keys.Key]() func([]K) Searcher[K] {
	return func(ks []K) Searcher[K] {
		vs := make([]uint64, len(ks))
		return btree.BulkLoad[K, uint64](btree.DefaultConfig[K](), ks, vs)
	}
}

// paperConfig is the Seg-Tree configuration every figure measures:
// segtree.DefaultConfig with the paper's key-width lanes, so the figures
// time the paper's fixed-width node, not narrow-lane compression.
func paperConfig[K keys.Key]() segtree.Config {
	cfg := segtree.DefaultConfig[K]()
	cfg.Lanes = kary.KeyLanes
	return cfg
}

// Figure11SegTree bulk-loads the Seg-Tree of one Figure 11 row: the
// paper's configuration with leaves and branches of caps keys, in the
// given layout.
func Figure11SegTree(caps int, layout kary.Layout, ks, vs []uint64) *segtree.Tree[uint64, uint64] {
	cfg := paperConfig[uint64]()
	cfg.LeafCap, cfg.BranchCap = caps, caps
	cfg.Layout = layout
	return segtree.BulkLoad[uint64, uint64](cfg, ks, vs)
}

// SegTreeBuilder bulk-loads a Seg-Tree with the given layout and bitmask
// evaluator.
func SegTreeBuilder[K keys.Key](layout kary.Layout, ev bitmask.Evaluator) func([]K) Searcher[K] {
	return func(ks []K) Searcher[K] {
		cfg := paperConfig[K]()
		cfg.Layout = layout
		cfg.Evaluator = ev
		vs := make([]uint64, len(ks))
		return segtree.BulkLoad[K, uint64](cfg, ks, vs)
	}
}

// SegTrieBuilder fills a plain Seg-Trie.
func SegTrieBuilder[K keys.Key]() func([]K) Searcher[K] {
	return func(ks []K) Searcher[K] {
		tr := segtrie.NewDefault[K, uint64]()
		for i, k := range ks {
			tr.Put(k, uint64(i))
		}
		return tr
	}
}

// OptimizedTrieBuilder fills an optimized Seg-Trie.
func OptimizedTrieBuilder[K keys.Key]() func([]K) Searcher[K] {
	return func(ks []K) Searcher[K] {
		tr := segtrie.NewOptimizedDefault[K, uint64]()
		for i, k := range ks {
			tr.Put(k, uint64(i))
		}
		return tr
	}
}

// FormatTable renders a fixed-width text table.
func FormatTable(header []string, rows [][]string) string {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(header)
	sep := make([]string, len(header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range rows {
		line(r)
	}
	return b.String()
}

// Ns formats an ns/op figure.
func Ns(v float64) string { return fmt.Sprintf("%.1f", v) }

// Speedup formats base/v as "N.NNx".
func Speedup(base, v float64) string { return fmt.Sprintf("%.2fx", base/v) }
