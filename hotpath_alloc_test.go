package simdtree_test

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	simdtree "repro"
	"repro/internal/bitmask"
	"repro/internal/btree"
	"repro/internal/driver"
	"repro/internal/invariants"
	"repro/internal/kary"
	"repro/internal/keys"
	"repro/internal/obs"
	"repro/internal/reqtrace"
	"repro/internal/segtree"
	"repro/internal/shape"
	"repro/internal/workload"
)

// TestGetIsAllocationFree is the dynamic counterpart of the hotalloc
// static analyzer: every //simdtree:hotpath kernel feeds a Get, so a
// single heap allocation anywhere on the point-lookup path shows up
// here as AllocsPerRun > 0. The matrix covers every structure, every
// k-ary layout and bitmask evaluator where they apply, and the sharded
// wrapper, for both hit and miss lookups. GetTraced with a nil trace runs
// the same matrix, so the returned cost provably stays off the heap.
func TestGetIsAllocationFree(t *testing.T) {
	const n = 4096
	keys := make([]uint32, n)
	for i := range keys {
		keys[i] = uint32(i * 3)
	}

	type variant struct {
		name string
		opts []simdtree.Option
	}
	var variants []variant

	structures := []simdtree.Structure{
		simdtree.StructureSegTree,
		simdtree.StructureSegTrie,
		simdtree.StructureOptimizedSegTrie,
		simdtree.StructureBPlusTree,
	}
	layouts := map[simdtree.Layout]string{
		simdtree.BreadthFirst: "bf",
		simdtree.DepthFirst:   "df",
	}
	evaluators := map[simdtree.Evaluator]string{
		simdtree.BitShift:   "bitshift",
		simdtree.SwitchCase: "switch",
		simdtree.Popcount:   "popcount",
	}

	for _, s := range structures {
		if s == simdtree.StructureBPlusTree {
			// The baseline B+-Tree searches nodes with scalar binary
			// search; layout/evaluator options do not apply to it.
			variants = append(variants, variant{
				name: s.String(),
				opts: []simdtree.Option{simdtree.WithStructure(s)},
			})
			continue
		}
		for l, ln := range layouts {
			for e, en := range evaluators {
				variants = append(variants, variant{
					name: fmt.Sprintf("%s/%s/%s", s, ln, en),
					opts: []simdtree.Option{
						simdtree.WithStructure(s),
						simdtree.WithLayout(l),
						simdtree.WithEvaluator(e),
					},
				})
			}
		}
	}
	// Sharded wrapper over each structure, default layout/evaluator. The
	// shards are MVCC snapshot publishers, so this also covers the
	// epoch-pinned read path.
	for _, s := range structures {
		variants = append(variants, variant{
			name: s.String() + "/sharded",
			opts: []simdtree.Option{simdtree.WithStructure(s), simdtree.WithShards(4)},
		})
	}
	// Unsharded versioned wrapper: the epoch pin/release protocol itself
	// must be allocation-free.
	for _, s := range structures {
		variants = append(variants, variant{
			name: s.String() + "/versioned",
			opts: []simdtree.Option{simdtree.WithStructure(s), simdtree.WithSnapshots()},
		})
	}

	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			ix := simdtree.NewIndex[uint32, int](v.opts...)
			for i, k := range keys {
				ix.Put(k, i)
			}
			hit := keys[n/2]
			miss := hit + 1 // keys are multiples of 3, so hit+1 is absent
			if _, ok := ix.Get(hit); !ok {
				t.Fatalf("Get(%d): expected hit", hit)
			}
			if _, ok := ix.Get(miss); ok {
				t.Fatalf("Get(%d): expected miss", miss)
			}
			allocs := testing.AllocsPerRun(200, func() {
				ix.Get(hit)
				ix.Get(miss)
			})
			if allocs != 0 {
				t.Errorf("Get allocates %.1f times per hit+miss pair; the hot path must be allocation-free", allocs)
			}
			allocs = testing.AllocsPerRun(200, func() {
				ix.GetTraced(hit, nil)
				ix.GetTraced(miss, nil)
			})
			if allocs != 0 {
				t.Errorf("GetTraced(k, nil) allocates %.1f times per hit+miss pair", allocs)
			}
			// Reads through a pinned snapshot share the same kernels and
			// must stay allocation-free too (the pin itself happened at
			// TakeSnapshot; Get is pure tree descent).
			if snap, ok := simdtree.TakeSnapshot(ix); ok {
				defer snap.Release()
				if _, found := snap.Get(hit); !found {
					t.Fatalf("snapshot Get(%d): expected hit", hit)
				}
				allocs = testing.AllocsPerRun(200, func() {
					snap.Get(hit)
					snap.Get(miss)
				})
				if allocs != 0 {
					t.Errorf("snapshot Get allocates %.1f times per hit+miss pair", allocs)
				}
			}
		})
	}
}

// TestGetBatchIntoIsAllocationFree is the batch counterpart of the Get
// gate: a 16-key GetBatchInto into reused buffers must not allocate on
// any structure, bare or behind Versioned, Sharded(16), a Snapshot or
// Instrumented, and GetBatch must allocate exactly its two results. A
// 256-key batch — many windows of the interleaved descent on a bare
// Seg-Tree or B+-Tree, about 16 probes per shard behind Sharded(16) —
// must not allocate either.
func TestGetBatchIntoIsAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool items; this gate runs without -race")
	}
	const n, batch = 4096, 16
	// Keys spread across the whole key space reach every shard.
	spread := uint32(1<<32/n) + 1
	structures := []simdtree.Structure{
		simdtree.StructureSegTree,
		simdtree.StructureSegTrie,
		simdtree.StructureOptimizedSegTrie,
		simdtree.StructureBPlusTree,
	}
	for _, s := range structures {
		wrappings := []struct {
			name string
			ix   simdtree.Index[uint32, int]
		}{
			{"bare", simdtree.NewIndex[uint32, int](simdtree.WithStructure(s))},
			{"versioned", simdtree.NewIndex[uint32, int](simdtree.WithStructure(s), simdtree.WithSnapshots())},
			{"sharded", simdtree.NewIndex[uint32, int](simdtree.WithStructure(s), simdtree.WithShards(16))},
			{"instrumented", simdtree.NewInstrumentedIndex[uint32, int](simdtree.WithStructure(s), simdtree.WithShards(16))},
		}
		for _, w := range wrappings {
			for i := uint32(0); i < n; i++ {
				w.ix.Put(i*spread, int(i))
			}
			probes := make([]uint32, batch)
			for i := range probes {
				probes[i] = uint32(i*97%n) * spread
				if i%4 == 3 {
					probes[i]++ // a miss
				}
			}
			vals, found := make([]int, batch), make([]bool, batch)
			check := func(name string, b interface {
				GetBatchInto([]uint32, []int, []bool)
				GetBatch([]uint32) ([]int, []bool)
			}) {
				b.GetBatchInto(probes, vals, found)
				if !found[0] || found[3] {
					t.Fatalf("%s/%s: found = %v", s, name, found)
				}
				if a := testing.AllocsPerRun(200, func() { b.GetBatchInto(probes, vals, found) }); a != 0 {
					t.Errorf("%s/%s: GetBatchInto allocates %.1f times per %d-key batch", s, name, a, batch)
				}
				if a := testing.AllocsPerRun(200, func() { b.GetBatch(probes) }); a != 2 {
					t.Errorf("%s/%s: GetBatch allocates %.1f times per batch, want 2 (values and found mask)", s, name, a)
				}
			}
			check(w.name, w.ix)
			if snap, ok := simdtree.TakeSnapshot(w.ix); ok {
				check(w.name+"/snapshot", snap)
				snap.Release()
			}
			all := make([]uint32, 256)
			for i := range all {
				all[i] = uint32(i*31%n) * spread
			}
			av, af := make([]int, len(all)), make([]bool, len(all))
			if a := testing.AllocsPerRun(200, func() { w.ix.GetBatchInto(all, av, af) }); a != 0 {
				t.Errorf("%s/%s: GetBatchInto allocates %.1f times per %d-key batch", s, w.name, a, len(all))
			}
		}
	}
	verifyShardShareIsAllocationFree(t)
}

// verifyShardShareIsAllocationFree sends all 16 keys of a batch to one
// shard of a sharded Seg-Tree and B+-Tree, live and through a fresh
// Snapshot, so that one pinned shard answers all of them. Neither may
// allocate; a fresh Snapshot's batch allocates nothing beyond
// taking the Snapshot.
func verifyShardShareIsAllocationFree(t *testing.T) {
	const n, batch = 4096, 16
	for _, s := range []simdtree.Structure{simdtree.StructureSegTree, simdtree.StructureBPlusTree} {
		// Keys below 2^32 all route to shard 0 of 2.
		ix := simdtree.NewIndex[uint64, int](simdtree.WithStructure(s), simdtree.WithShards(2))
		for i := 0; i < n; i++ {
			ix.Put(uint64(2*i), i)
		}
		probes := make([]uint64, batch)
		for i := range probes {
			probes[i] = uint64(2 * (i * 7919 % n))
		}
		vals, found := make([]int, batch), make([]bool, batch)
		ix.GetBatchInto(probes, vals, found)
		if !found[batch-1] || vals[1] != 7919%n {
			t.Fatalf("%s: GetBatchInto = %v,%v", s, vals, found)
		}
		if a := testing.AllocsPerRun(200, func() { ix.GetBatchInto(probes, vals, found) }); a != 0 {
			t.Errorf("%s: GetBatchInto into one shard allocates %.1f times per %d-key batch", s, a, batch)
		}
		take := func() *simdtree.IndexSnapshotView[uint64, int] {
			snap, ok := simdtree.TakeSnapshot(ix)
			if !ok {
				t.Fatal("sharded index has no Snapshot")
			}
			return snap
		}
		bare := testing.AllocsPerRun(50, func() { take().Release() })
		withBatch := testing.AllocsPerRun(50, func() {
			snap := take()
			snap.GetBatchInto(probes, vals, found)
			snap.Release()
		})
		if withBatch != bare {
			t.Errorf("%s: a fresh Snapshot's GetBatchInto allocates %.1f times beyond taking the Snapshot",
				s, withBatch-bare)
		}
	}
}

// TestNodeSearchIsAllocationFree extends the matrix below the structures:
// the standalone k-ary node search — Search and Lookup on one Table 3
// node, and their cost-returning forms — must not allocate for any key
// width, layout or evaluator.
func TestNodeSearchIsAllocationFree(t *testing.T) {
	nodeSearchAllocs[uint8](t, "8bit", 254)
	nodeSearchAllocs[uint16](t, "16bit", 404)
	nodeSearchAllocs[uint32](t, "32bit", 338)
	nodeSearchAllocs[uint64](t, "64bit", 242)
}

func nodeSearchAllocs[K keys.Key](t *testing.T, name string, n int) {
	ks := make([]K, n) // 0 … n, without n/2
	for i := range ks {
		ks[i] = K(i)
		if i >= n/2 {
			ks[i]++
		}
	}
	hit, miss := ks[n/4], K(n/2)
	for _, layout := range kary.Layouts {
		node := kary.Build(ks, layout)
		for _, ev := range bitmask.Evaluators {
			var c obs.Cost
			allocs := testing.AllocsPerRun(200, func() {
				node.Search(hit, ev)
				node.Search(miss, ev)
				node.Lookup(hit, ev)
				node.Lookup(miss, ev)
				node.SearchPT(hit, new(kary.Register), ev, nil, &c)
				node.LookupPT(miss, new(kary.Register), ev, nil, &c)
			})
			if allocs != 0 {
				t.Errorf("%s/%v/%v: node search allocates %.1f times per hit+miss pair", name, layout, ev, allocs)
			}
		}
	}
}

// TestInPlaceUpdatesAllocationFree gates the in-place node updates: while
// the geometry and the storage's size class hold, InsertAt and DeleteAt
// only move lanes, for every key width and layout. Each node's key count
// n is one whose geometry and stored slots also fit n+1 keys.
func TestInPlaceUpdatesAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gates run without -race")
	}
	if invariants.Enabled {
		t.Skip("assertion arguments allocate in -tags=invariants builds")
	}
	inPlaceUpdateAllocs[uint8](t, "8bit", 120)
	inPlaceUpdateAllocs[uint16](t, "16bit", 116)
	inPlaceUpdateAllocs[int32](t, "32bit", 118)
	inPlaceUpdateAllocs[uint64](t, "64bit", 121)
}

func inPlaceUpdateAllocs[K keys.Key](t *testing.T, name string, n int) {
	ks := make([]K, n) // even keys; the inserts are odd
	for i := range ks {
		ks[i] = K(2 * i)
	}
	mid, top := K(2*(n/2)-1), K(2*n+1) // mid's rank is n/2, top's is n
	for _, layout := range kary.Layouts {
		node := kary.Build(ks, layout)
		levels, stored := node.Levels(), node.Stored()
		for _, ins := range []struct {
			pos int
			x   K
		}{{n / 2, mid}, {n, top}} {
			node.InsertAt(ins.pos, ins.x)
			if node.Levels() != levels || node.Stored() != stored {
				t.Fatalf("%s/%v: %d keys change the geometry, pick another key count", name, layout, n+1)
			}
			node.DeleteAt(ins.pos)
		}
		allocs := testing.AllocsPerRun(200, func() {
			node.InsertAt(n/2, mid) // shifts half the keys up
			node.DeleteAt(n / 2)    // and back down
			node.InsertAt(n, top)   // a new maximum rewrites the pads
			node.DeleteAt(n)
		})
		if allocs != 0 {
			t.Errorf("%s/%v: in-place updates allocate %.1f times per round", name, layout, allocs)
		}
	}
}

// TestSpanOffDriverGetIsAllocationFree is the request-span twin of the
// gates above: the driver's per-op span plumbing — a rate-0 StartRoot,
// the context lookup inside IndexTarget.Get, and Finish on the nil span
// — must add zero heap allocations to an untraced operation. This is the
// dynamic proof behind the <2% span-off overhead gate.
func TestSpanOffDriverGetIsAllocationFree(t *testing.T) {
	const n = 4096
	ix := simdtree.NewIndex[uint64, string](simdtree.WithStructure(simdtree.StructureOptimizedSegTrie))
	for i := uint64(0); i < n; i++ {
		ix.Put(i*3, "v")
	}
	tgt := driver.NewIndexTarget(ix)
	tracer := reqtrace.NewTracer(0, 0) // spans off
	ctx := context.Background()
	hit, miss := uint64(n/2)*3, uint64(n/2)*3+1
	if _, ok, _ := tgt.Get(ctx, hit); !ok {
		t.Fatalf("Get(%d): expected hit", hit)
	}
	allocs := testing.AllocsPerRun(200, func() {
		sp := tracer.StartRoot("read")
		tgt.Get(ctx, hit)
		tgt.Get(ctx, miss)
		tracer.Finish(sp)
	})
	if allocs != 0 {
		t.Errorf("span-off driver Get allocates %.1f times per hit+miss pair; the untraced path must be allocation-free", allocs)
	}
	if st := tracer.Stats(); st.Started != 0 {
		t.Fatalf("rate-0 tracer started %d spans", st.Started)
	}
}

// TestInstrumentedGetIsAllocationFree extends the gate over the
// instrumentation decorator: timing a Get into the lifetime histograms —
// and, once EnableWindows attaches the epoch ring, into the windowed
// ones — and adding its cost to the counters must not add a single heap
// allocation per operation.
func TestInstrumentedGetIsAllocationFree(t *testing.T) {
	const n = 4096
	for _, withWindows := range []bool{false, true} {
		name := "plain"
		if withWindows {
			name = "windowed"
		}
		t.Run(name, func(t *testing.T) {
			ix := simdtree.NewInstrumentedIndex[uint32, int](
				simdtree.WithStructure(simdtree.StructureOptimizedSegTrie))
			for i := uint32(0); i < n; i++ {
				ix.Put(i*3, int(i))
			}
			if withWindows {
				ix.EnableWindows(time.Second, 8)
			}
			hit, miss := uint32(n/2)*3, uint32(n/2)*3+1
			allocs := testing.AllocsPerRun(200, func() {
				ix.Get(hit)
				ix.Get(miss)
			})
			if allocs != 0 {
				t.Errorf("instrumented Get (%s) allocates %.1f times per hit+miss pair", name, allocs)
			}
			if withWindows {
				// Sanity: the observations really did land in the window.
				if h, ok := ix.WindowSnapshot(simdtree.OpGet, time.Second); !ok || h.Count == 0 {
					t.Fatalf("windowed histogram saw no gets (ok=%v count=%d)", ok, h.Count)
				}
				// Rotation is on the owner's tick path; it must not allocate
				// either.
				if ra := testing.AllocsPerRun(100, ix.RotateWindows); ra != 0 {
					t.Errorf("RotateWindows allocates %.1f times per rotation", ra)
				}
			}
		})
	}
}

// TestPutAllocations bounds the heap allocations of a bare 64-bit
// Seg-Tree's Puts. A node's key storage grows inside its allocator size
// class and a full node splits straight from its sorted keys, so what is
// left is a split's new node and halves and a size-class crossing.
func TestPutAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("-race builds allocate the size-class growth twice; this gate runs without -race")
	}
	if invariants.Enabled {
		t.Skip("assertion arguments allocate in -tags=invariants builds")
	}
	const n = 20000
	const limit = 0.15
	rng := rand.New(rand.NewSource(1))
	random := make([]uint64, n)
	for i := range random {
		random[i] = rng.Uint64()
	}
	for _, tc := range []struct {
		name string
		key  func(i int) uint64
	}{
		{"ascending", func(i int) uint64 { return uint64(i) }},
		{"random", func(i int) uint64 { return random[i] }},
	} {
		allocs := testing.AllocsPerRun(1, func() {
			tr := segtree.NewDefault[uint64, int]()
			for i := 0; i < n; i++ {
				tr.Put(tc.key(i), i)
			}
		})
		if perPut := allocs / n; perPut > limit {
			t.Errorf("%s: %.3f allocations per Put, want at most %.2f", tc.name, perPut, limit)
		} else {
			t.Logf("%s: %.3f allocations per Put", tc.name, perPut)
		}
	}
}

// TestLoadBytesPerPut bounds the bytes a load allocates per Put into the
// MVCC composition perfbench serves: 16 key-range shards, each a
// versioned tree whose writes copy the nodes on their path. A copy is
// sized to its node and reuses a retired node's storage of its size
// class, so a shuffled load allocates little beyond the nodes splits
// create (about 80 B/Put; 269 when copies kept the source's capacity),
// and an ascending one reuses the rightmost leaf's storage, which its
// copies keep at LeafCap, through the whole load (about 25 B/Put, 70
// before). The Seg-Trie shares the copy rule (about 70 B/Put, 119
// before).
func TestLoadBytesPerPut(t *testing.T) {
	if raceEnabled {
		t.Skip("-race builds allocate the size-class growth twice; this gate runs without -race")
	}
	if invariants.Enabled {
		t.Skip("assertion arguments allocate in -tags=invariants builds")
	}
	rng := rand.New(rand.NewSource(1))
	shuffled := workload.Ascending[uint64](100_000)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	ascending := workload.UniformRandom[uint64](rng, 32_768)
	slices.Sort(ascending)
	for _, tc := range []struct {
		name      string
		structure simdtree.Structure
		ks        []uint64
		limit     float64
	}{
		{"segtree/shuffled-100000", simdtree.StructureSegTree, shuffled, 128},
		{"segtree/ascending-32768", simdtree.StructureSegTree, ascending, 70},
		{"segtrie/shuffled-100000", simdtree.StructureSegTrie, shuffled, 96},
	} {
		ix := simdtree.NewIndex[uint64, uint64](simdtree.WithStructure(tc.structure), simdtree.WithShards(16))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, k := range tc.ks {
			ix.Put(k, k)
		}
		runtime.ReadMemStats(&after)
		if perPut := float64(after.TotalAlloc-before.TotalAlloc) / float64(len(tc.ks)); perPut > tc.limit {
			t.Errorf("%s: %.1f B allocated per Put, want at most %.0f", tc.name, perPut, tc.limit)
		} else {
			t.Logf("%s: %.1f B allocated per Put", tc.name, perPut)
		}
	}
}

// TestAscendingPutAllocationsBothLayouts loads 20,000 ascending 64-bit
// keys by Put into Seg-Trees of both layouts and both lane policies. A
// breadth-first node changes geometry every k−1 keys; the rebuild moves
// its lanes through a stack buffer, not a key list, so both layouts stay
// near one allocation per filled leaf (about 0.02 per Put) instead of
// about one per Put.
func TestAscendingPutAllocationsBothLayouts(t *testing.T) {
	if invariants.Enabled {
		t.Skip("assertion arguments allocate in -tags=invariants builds")
	}
	const n = 20000
	const limit = 0.1
	for _, layout := range kary.Layouts {
		for _, lanes := range []kary.LanePolicy{kary.KeyLanes, kary.NarrowLanes} {
			cfg := segtree.DefaultConfig[uint64]()
			cfg.Layout, cfg.Lanes = layout, lanes
			allocs := testing.AllocsPerRun(1, func() {
				tr := segtree.New[uint64, int](cfg)
				for i := 0; i < n; i++ {
					tr.Put(uint64(i)<<24, i)
				}
			})
			if perPut := allocs / n; perPut > limit {
				t.Errorf("%v %v lanes: %.3f allocations per Put, want at most %.2f", layout, lanes, perPut, limit)
			} else {
				t.Logf("%v %v lanes: %.3f allocations per Put", layout, lanes, perPut)
			}
		}
	}
}

// TestMergeGrowsOnce measures one Delete that merges two half-full
// 64-bit leaves, in a Seg-Tree and in the baseline. The left leaf's store
// grows once to the merged size before the right leaf's keys append to
// it, instead of regrowing through each allocator size class on the way;
// with the rebuild of the root the merge empties, at most 2 allocations
// remain.
func TestMergeGrowsOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("-race builds allocate the size-class growth twice; this gate runs without -race")
	}
	if invariants.Enabled {
		t.Skip("assertion arguments allocate in -tags=invariants builds")
	}
	type tree interface {
		Put(uint64, int) bool
		Delete(uint64) bool
		Shape() shape.Report
	}
	for name, mk := range map[string]func() tree{
		"segtree": func() tree { return segtree.NewDefault[uint64, int]() },
		"btree":   func() tree { return btree.NewDefault[uint64, int]() },
	} {
		leaves := func(tr tree) (nodes, keys int) {
			lf := tr.Shape().LevelFill
			return lf[len(lf)-1].Nodes, lf[len(lf)-1].Keys
		}
		// A full root leaf split in its middle: fresh halves of 121 and
		// 122 keys, then one delete takes the right one to 121 as well.
		half := func() tree {
			tr := mk()
			const leafCap = 242
			for i := range leafCap {
				tr.Put(uint64(i)*2, i)
			}
			tr.Put(leafCap+1, -1)
			tr.Delete((leafCap - 1) * 2)
			if n, k := leaves(tr); n != 2 || k != 242 {
				t.Fatalf("%s: setup has %d leaves holding %d keys, want 2 holding 242", name, n, k)
			}
			return tr
		}
		trees := []tree{half(), half()} // AllocsPerRun runs once more to warm up
		next := 0
		allocs := testing.AllocsPerRun(1, func() {
			trees[next].Delete(0)
			next++
		})
		for _, tr := range trees {
			if n, k := leaves(tr); n != 1 || k != 241 {
				t.Fatalf("%s: after the merge %d leaves hold %d keys, want 1 holding 241", name, n, k)
			}
		}
		if allocs > 2 {
			t.Errorf("%s: merging Delete made %.0f allocations, want at most 2", name, allocs)
		} else {
			t.Logf("%s: merging Delete made %.0f allocations", name, allocs)
		}
	}
}
