package index_test

import (
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bitmask"
	"repro/internal/btree"
	"repro/internal/index"
	"repro/internal/kary"
	"repro/internal/obs"
	"repro/internal/segtree"
	"repro/internal/segtrie"
)

func newSmallSegTree() index.Index[uint32, int] {
	return segtree.New[uint32, int](segtree.Config{
		LeafCap: 6, BranchCap: 6, Layout: kary.BreadthFirst, Evaluator: bitmask.Popcount,
	})
}

func TestInstrumentedRecordsPerOp(t *testing.T) {
	ix := index.NewInstrumented(newSmallSegTree())
	for i := uint32(0); i < 50; i++ {
		ix.Put(i, int(i))
	}
	for i := uint32(0); i < 20; i++ {
		ix.Get(i)
	}
	ix.Contains(3)
	ix.Delete(7)
	ix.GetBatch([]uint32{1, 2, 3})
	ix.ContainsBatch([]uint32{4, 5})
	ix.Scan(0, 10, func(uint32, int) bool { return true })

	want := map[index.Op]uint64{
		index.OpPut: 50, index.OpGet: 20, index.OpContains: 1,
		index.OpDelete: 1, index.OpGetBatch: 1, index.OpContainsBatch: 1,
		index.OpScan: 1,
	}
	for op, n := range want {
		if got := ix.Histogram(op).Count; got != n {
			t.Errorf("%v histogram count = %d, want %d", op, got, n)
		}
	}

	snap := ix.Snapshot()
	if len(snap.Ops) != len(index.Ops) {
		t.Fatalf("Snapshot has %d ops, want %d", len(snap.Ops), len(index.Ops))
	}
	if snap.Stats.Keys != 49 { // 50 puts − 1 delete
		t.Errorf("Snapshot stats keys = %d, want 49", snap.Stats.Keys)
	}

	ix.Reset()
	if got := ix.Histogram(index.OpGet).Count; got != 0 {
		t.Errorf("after Reset, get count = %d", got)
	}
}

// TestInstrumentedWindows covers the windowed-metrics attachment: before
// EnableWindows the snapshot reports no data, afterwards operations land
// in both the lifetime histogram and the current epoch, and rotating the
// ring away drains the window while the lifetime count stays.
func TestInstrumentedWindows(t *testing.T) {
	ix := index.NewInstrumented(newSmallSegTree())
	ix.Put(1, 1)

	if _, ok := ix.WindowSnapshot(index.OpGet, time.Minute); ok {
		t.Fatal("WindowSnapshot reported data before EnableWindows")
	}
	if ix.WindowTick() != 0 {
		t.Fatalf("WindowTick before enable = %v", ix.WindowTick())
	}
	ix.RotateWindows() // must be a no-op, not a panic

	ix.EnableWindows(time.Second, 4)
	if ix.WindowTick() != time.Second {
		t.Fatalf("WindowTick = %v", ix.WindowTick())
	}
	for i := 0; i < 10; i++ {
		ix.Get(1)
	}
	h, ok := ix.WindowSnapshot(index.OpGet, time.Second)
	if !ok || h.Count != 10 {
		t.Fatalf("window get count = %d ok=%v, want 10", h.Count, ok)
	}
	if got := ix.Histogram(index.OpGet).Count; got != 10 {
		t.Fatalf("lifetime get count = %d, want 10", got)
	}

	// One rotation: the observations leave the 1-tick window but stay in
	// a 2-tick one.
	ix.RotateWindows()
	if h, _ := ix.WindowSnapshot(index.OpGet, time.Second); h.Count != 0 {
		t.Errorf("1-tick window after rotate = %d, want 0", h.Count)
	}
	if h, _ := ix.WindowSnapshot(index.OpGet, 2*time.Second); h.Count != 10 {
		t.Errorf("2-tick window after rotate = %d, want 10", h.Count)
	}

	// A full ring of rotations drains every window; lifetime persists.
	for i := 0; i < 4; i++ {
		ix.RotateWindows()
	}
	if h, _ := ix.WindowSnapshot(index.OpGet, time.Hour); h.Count != 0 {
		t.Errorf("window count after full rotation = %d, want 0", h.Count)
	}
	if got := ix.Histogram(index.OpGet).Count; got != 10 {
		t.Errorf("lifetime count after rotation = %d, want 10", got)
	}
}

func TestInstrumentedCounters(t *testing.T) {
	// The per-index counters must capture the wrapped structure's SIMD
	// work on point lookups.
	ix := index.NewInstrumented(segtrie.New[uint64, int](segtrie.DefaultConfig()))
	for i := uint64(0); i < 32; i++ {
		ix.Put(i, int(i))
	}
	before := ix.Counters().Read()
	for i := uint64(0); i < 32; i++ {
		if _, ok := ix.Get(i); !ok {
			t.Fatalf("Get(%d) missed", i)
		}
	}
	after := ix.Counters().Read()
	if after.NodeVisits <= before.NodeVisits {
		t.Errorf("Get did not raise NodeVisits: %d -> %d", before.NodeVisits, after.NodeVisits)
	}
}

// TestInstrumentedCountersConcurrentAttribution pins per-index cost
// attribution under concurrency: goroutines interleave lookups on two
// instrumented Seg-Trees and on a third, bare one, and each instrumented
// index must count exactly its own lookups — no more, no less — while
// the bare index's searches land nowhere.
func TestInstrumentedCountersConcurrentAttribution(t *testing.T) {
	const keys, goroutines, rounds = 4096, 4, 50
	build := func() index.Index[uint64, int] {
		tr := segtree.New[uint64, int](segtree.DefaultConfig[uint64]())
		for i := uint64(0); i < keys; i++ {
			tr.Put(i*7, int(i))
		}
		return tr
	}
	a, b := index.NewInstrumented(build()), index.NewInstrumented(build())
	bare := build()
	pass := func(ix index.Index[uint64, int]) {
		for i := uint64(0); i < keys; i++ {
			if _, ok := ix.Get(i * 7); !ok {
				t.Errorf("Get(%d) missed", i*7)
				return
			}
		}
	}
	pass(a)
	one := a.Counters().Read()
	if one.NodeVisits == 0 || one.SIMDComparisons == 0 {
		t.Fatalf("single pass counted nothing: %+v", one)
	}
	a.Reset()

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if (g+r)%2 == 0 {
					pass(a)
				} else {
					pass(b)
				}
				pass(bare)
			}
		}(g)
	}
	wg.Wait()

	const passes = goroutines * rounds / 2
	for name, ix := range map[string]*index.Instrumented[uint64, int]{"a": a, "b": b} {
		got := ix.Counters().Read()
		if got.NodeVisits != passes*one.NodeVisits || got.SIMDComparisons != passes*one.SIMDComparisons {
			t.Errorf("index %s: node visits %d, SIMD comparisons %d; want exactly %d× a single pass: %d, %d",
				name, got.NodeVisits, got.SIMDComparisons, passes,
				passes*one.NodeVisits, passes*one.SIMDComparisons)
		}
	}
}

func TestInstrumentedUnwrap(t *testing.T) {
	inner := newSmallSegTree()
	ix := index.NewInstrumented(inner)
	if ix.Unwrap() != inner {
		t.Fatal("Unwrap did not return the wrapped index")
	}
}

func TestInstrumentedWritePrometheus(t *testing.T) {
	ix := index.NewInstrumented(newSmallSegTree())
	ix.Put(1, 10)
	ix.Get(1)
	var b strings.Builder
	if err := obs.WriteProm(&b, "segidx", ix.Snapshot().Metrics()); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE segidx_op_latency_seconds histogram",
		`segidx_op_latency_seconds_count{op="get"} 1`,
		`segidx_op_latency_seconds_count{op="put"} 1`,
		`segidx_op_latency_seconds_bucket{op="get",le="+Inf"} 1`,
		"# TYPE segidx_simd_comparisons_total counter",
		"# TYPE segidx_keys gauge",
		"segidx_keys 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Prometheus output missing %q\n%s", want, out)
		}
	}
}

// TestLaneNodesMetric reads the shape_lane_nodes family off an
// instrumented Seg-Tree. Dense keys put every leaf at 1-byte lanes; random
// 64-bit keys keep every node at 8-byte lanes; a baseline B+-Tree, which
// searches no SIMD lanes, exports no such rows.
func TestLaneNodesMetric(t *testing.T) {
	lanes := func(ix index.Index[uint64, int]) (rows map[string]float64, nodes, leaves int) {
		snap := index.NewInstrumented(ix).Snapshot()
		rows = map[string]float64{}
		for _, m := range snap.Metrics() {
			if m.Name == "shape_lane_nodes" {
				rows[m.LabelValue] = m.Value
			}
		}
		lf := snap.Shape.LevelFill
		return rows, snap.Shape.Nodes, lf[len(lf)-1].Nodes
	}
	dense := segtree.NewDefault[uint64, int]()
	rng := rand.New(rand.NewSource(3))
	for _, i := range rng.Perm(20_000) {
		dense.Put(uint64(i), i)
	}
	if rows, nodes, leaves := lanes(dense); rows["1"] < float64(leaves) || rows["1"]+rows["2"] != float64(nodes) {
		t.Errorf("dense keys: lane nodes %v for %d nodes, %d leaves; want every leaf at width 1", rows, nodes, leaves)
	}
	random := segtree.NewDefault[uint64, int]()
	for i := range 20_000 {
		random.Put(rng.Uint64(), i)
	}
	if rows, nodes, _ := lanes(random); rows["8"] != float64(nodes) || rows["1"]+rows["2"]+rows["4"] != 0 {
		t.Errorf("random keys: lane nodes %v for %d nodes; want all at width 8", rows, nodes)
	}
	if rows, _, _ := lanes(btree.NewDefault[uint64, int]()); len(rows) != 0 {
		t.Errorf("baseline B+-Tree exports lane nodes %v", rows)
	}
}
