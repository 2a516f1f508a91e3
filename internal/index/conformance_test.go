package index_test

// The table-driven conformance suite of the index layer: one set of
// semantic checks exercised against every structure in the module — the
// four tree structures across both linearization layouts and all three
// bitmask evaluators, plus the Sharded wrapper over each structure. It
// replaces the per-package copies of the same checks (batch parity,
// put/get/delete semantics) that predated the shared layer.

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
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
	"repro/internal/trace"
)

type maker struct {
	name string
	new  func() index.Index[uint32, int]
}

// makers enumerates every conforming implementation: the baseline B+-Tree
// (binary search — no layout or evaluator axis), the three SIMD
// structures across layouts × evaluators, and Sharded over one
// representative of each structure kind.
func makers() []maker {
	// Small node capacities force real splits/merges at test sizes.
	newSegTree := func(layout kary.Layout, ev bitmask.Evaluator) func() index.Index[uint32, int] {
		return func() index.Index[uint32, int] {
			return segtree.New[uint32, int](segtree.Config{
				LeafCap: 6, BranchCap: 6, Layout: layout, Evaluator: ev,
			})
		}
	}
	newTrie := func(layout kary.Layout, ev bitmask.Evaluator) func() index.Index[uint32, int] {
		return func() index.Index[uint32, int] {
			return segtrie.New[uint32, int](segtrie.Config{Layout: layout, Evaluator: ev})
		}
	}
	newOpt := func(layout kary.Layout, ev bitmask.Evaluator) func() index.Index[uint32, int] {
		return func() index.Index[uint32, int] {
			return segtrie.NewOptimized[uint32, int](segtrie.Config{Layout: layout, Evaluator: ev})
		}
	}
	newBTree := func() index.Index[uint32, int] {
		return btree.New[uint32, int](btree.Config{LeafCap: 6, BranchCap: 6})
	}

	ms := []maker{{"btree", newBTree}}
	for _, layout := range kary.Layouts {
		for _, ev := range bitmask.Evaluators {
			ms = append(ms,
				maker{fmt.Sprintf("segtree/%v/%v", layout, ev), newSegTree(layout, ev)},
				maker{fmt.Sprintf("segtrie/%v/%v", layout, ev), newTrie(layout, ev)},
				maker{fmt.Sprintf("opt-segtrie/%v/%v", layout, ev), newOpt(layout, ev)},
			)
		}
	}
	sharded := func(inner func() index.Index[uint32, int]) func() index.Index[uint32, int] {
		return func() index.Index[uint32, int] {
			return index.NewSharded[uint32, int](5, inner)
		}
	}
	df, pc := kary.DepthFirst, bitmask.Popcount
	ms = append(ms,
		maker{"sharded/segtree", sharded(newSegTree(df, pc))},
		maker{"sharded/btree", sharded(newBTree)},
		maker{"sharded/segtrie", sharded(newTrie(kary.BreadthFirst, pc))},
		maker{"sharded/opt-segtrie", sharded(newOpt(kary.BreadthFirst, pc))},
	)
	versioned := func(inner func() index.Index[uint32, int]) func() index.Index[uint32, int] {
		return func() index.Index[uint32, int] {
			return index.NewVersioned[uint32, int](inner)
		}
	}
	ms = append(ms,
		maker{"versioned/segtree", versioned(newSegTree(df, pc))},
		maker{"versioned/btree", versioned(newBTree)},
		maker{"versioned/segtrie", versioned(newTrie(kary.BreadthFirst, pc))},
		maker{"versioned/opt-segtrie", versioned(newOpt(kary.BreadthFirst, pc))},
	)
	instrumented := func(inner func() index.Index[uint32, int]) func() index.Index[uint32, int] {
		return func() index.Index[uint32, int] {
			return index.NewInstrumented(inner())
		}
	}
	ms = append(ms,
		maker{"instrumented/segtree", instrumented(newSegTree(df, pc))},
		maker{"instrumented/btree", instrumented(newBTree)},
		maker{"instrumented/segtrie", instrumented(newTrie(kary.BreadthFirst, pc))},
		maker{"instrumented/opt-segtrie", instrumented(newOpt(kary.BreadthFirst, pc))},
		maker{"instrumented/sharded/segtree", instrumented(sharded(newSegTree(df, pc)))},
		maker{"instrumented/versioned/segtree", instrumented(versioned(newSegTree(df, pc)))},
	)
	return ms
}

// TestConformance drives every implementation through the same script:
// empty-index semantics, a randomized mixed workload verified against a
// reference map, ordered iteration, range scans, batched-lookup parity
// with per-probe Get, and statistics sanity.
func TestConformance(t *testing.T) {
	for _, m := range makers() {
		t.Run(m.name, func(t *testing.T) {
			testEmpty(t, m.new())
			ix := m.new()
			ref := applyMixedWorkload(t, ix, 3000, 101)
			verifyAgainstReference(t, ix, ref)
			verifyIteration(t, ix, ref)
			verifyBatchParity(t, ix, ref, 223)
			verifyStats(t, ix, ref)
			verifyShape(t, ix)
			verifyExplain(t, ix, ref)
		})
	}
}

func testEmpty(t *testing.T, ix index.Index[uint32, int]) {
	t.Helper()
	if ix.Len() != 0 {
		t.Fatalf("empty Len = %d", ix.Len())
	}
	if _, ok := ix.Get(7); ok {
		t.Fatal("empty Get hit")
	}
	if ix.Contains(7) {
		t.Fatal("empty Contains hit")
	}
	if _, _, ok := ix.Min(); ok {
		t.Fatal("empty Min ok")
	}
	if _, _, ok := ix.Max(); ok {
		t.Fatal("empty Max ok")
	}
	if ix.Delete(7) {
		t.Fatal("empty Delete hit")
	}
	if vals, found := ix.GetBatch(nil); len(vals) != 0 || len(found) != 0 {
		t.Fatal("empty nil batch")
	}
	if _, found := ix.GetBatch([]uint32{1, 2}); found[0] || found[1] {
		t.Fatal("empty batch hit")
	}
	ix.Ascend(func(uint32, int) bool { t.Fatal("empty Ascend call"); return false })
	ix.Scan(0, ^uint32(0), func(uint32, int) bool { t.Fatal("empty Scan call"); return false })
	if s := ix.IndexStats(); s.Keys != 0 {
		t.Fatalf("empty stats keys %d", s.Keys)
	}
}

// applyMixedWorkload runs a seeded Put/Delete/Get mix, checking each
// operation's return value against a reference map as it goes.
func applyMixedWorkload(t *testing.T, ix index.Index[uint32, int], ops int, seed int64) map[uint32]int {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ref := map[uint32]int{}
	for i := 0; i < ops; i++ {
		k := uint32(rng.Intn(2000))
		switch rng.Intn(4) {
		case 0, 1:
			_, existed := ref[k]
			if added := ix.Put(k, i); added != !existed {
				t.Fatalf("op %d: Put(%d) added=%v, want %v", i, k, added, !existed)
			}
			ref[k] = i
		case 2:
			_, existed := ref[k]
			if removed := ix.Delete(k); removed != existed {
				t.Fatalf("op %d: Delete(%d) removed=%v, want %v", i, k, removed, existed)
			}
			delete(ref, k)
		default:
			want, existed := ref[k]
			if got, ok := ix.Get(k); ok != existed || (ok && got != want) {
				t.Fatalf("op %d: Get(%d) = (%d,%v), want (%d,%v)", i, k, got, ok, want, existed)
			}
		}
	}
	return ref
}

func sortedKeys(ref map[uint32]int) []uint32 {
	ks := make([]uint32, 0, len(ref))
	for k := range ref {
		ks = append(ks, k)
	}
	sort.Slice(ks, func(a, b int) bool { return ks[a] < ks[b] })
	return ks
}

func verifyAgainstReference(t *testing.T, ix index.Index[uint32, int], ref map[uint32]int) {
	t.Helper()
	if ix.Len() != len(ref) {
		t.Fatalf("Len = %d, want %d", ix.Len(), len(ref))
	}
	for k, want := range ref {
		if got, ok := ix.Get(k); !ok || got != want {
			t.Fatalf("Get(%d) = (%d,%v), want (%d,true)", k, got, ok, want)
		}
		if !ix.Contains(k) {
			t.Fatalf("Contains(%d) = false", k)
		}
	}
	ks := sortedKeys(ref)
	if len(ks) == 0 {
		return
	}
	if k, v, ok := ix.Min(); !ok || k != ks[0] || v != ref[ks[0]] {
		t.Fatalf("Min = (%d,%d,%v), want (%d,%d,true)", k, v, ok, ks[0], ref[ks[0]])
	}
	last := ks[len(ks)-1]
	if k, v, ok := ix.Max(); !ok || k != last || v != ref[last] {
		t.Fatalf("Max = (%d,%d,%v), want (%d,%d,true)", k, v, ok, last, ref[last])
	}
}

func verifyIteration(t *testing.T, ix index.Index[uint32, int], ref map[uint32]int) {
	t.Helper()
	ks := sortedKeys(ref)
	i := 0
	ix.Ascend(func(k uint32, v int) bool {
		if i >= len(ks) || k != ks[i] || v != ref[k] {
			t.Fatalf("Ascend item %d: (%d,%d)", i, k, v)
		}
		i++
		return true
	})
	if i != len(ks) {
		t.Fatalf("Ascend visited %d of %d", i, len(ks))
	}
	// Early termination stops the walk.
	i = 0
	ix.Ascend(func(uint32, int) bool { i++; return i < 3 })
	if want := min(3, len(ks)); i != want {
		t.Fatalf("Ascend early stop visited %d, want %d", i, want)
	}
	// Range scans over a few windows, including partial and empty ones.
	for _, win := range [][2]uint32{{0, 2000}, {500, 700}, {1999, 1999}, {3000, 4000}} {
		lo, hi := win[0], win[1]
		var want []uint32
		for _, k := range ks {
			if k >= lo && k <= hi {
				want = append(want, k)
			}
		}
		var got []uint32
		ix.Scan(lo, hi, func(k uint32, v int) bool {
			if v != ref[k] {
				t.Fatalf("Scan[%d,%d] key %d value %d, want %d", lo, hi, k, v, ref[k])
			}
			got = append(got, k)
			return true
		})
		if len(got) != len(want) {
			t.Fatalf("Scan[%d,%d] visited %d keys, want %d", lo, hi, len(got), len(want))
		}
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("Scan[%d,%d] item %d: %d, want %d", lo, hi, j, got[j], want[j])
			}
		}
	}
	// Inverted bounds yield nothing.
	ix.Scan(10, 5, func(uint32, int) bool { t.Fatal("Scan(10,5) call"); return false })
}

// verifyBatchParity is the acceptance property: GetBatchInto, GetBatch
// and ContainsBatch must answer exactly what per-probe Get does, at batch
// sizes on both sides of the interleaved descent's window edges, for
// probe mixes with hits, misses (some routed to other shards) and
// duplicates.
func verifyBatchParity(t *testing.T, ix index.Index[uint32, int], ref map[uint32]int, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ks := sortedKeys(ref)
	c := index.Cursors
	for _, n := range []int{0, 1, c - 1, c, c + 1, 64, 65, 256} {
		probes := make([]uint32, n)
		for i := range probes {
			switch {
			case len(ks) > 0 && i%3 != 2:
				probes[i] = ks[rng.Intn(len(ks))] // hit, with replacement: duplicates
			case i%2 == 0:
				probes[i] = uint32(rng.Intn(4000)) // ~half misses
			default:
				probes[i] = rng.Uint32() // misses across the key space
			}
		}
		checkBatch(t, fmt.Sprintf("%d probes", n), ix, probes)
	}
	same := make([]uint32, c+1) // one key in every cursor, and past the window
	if len(ks) > 0 {
		for i := range same {
			same[i] = ks[len(ks)/2]
		}
	}
	checkBatch(t, "one key repeated", ix, same)
}

// checkBatch runs one batch through GetBatchInto — into buffers longer
// than the batch and pre-filled with junk, so a missing write or a write
// past len(probes) shows — and through GetBatch and ContainsBatch, and
// compares every answer with serial Get.
func checkBatch(t *testing.T, what string, ix index.Index[uint32, int], probes []uint32) {
	t.Helper()
	const junk = -7
	vals := make([]int, len(probes)+3)
	found := make([]bool, len(probes)+3)
	for i := range vals {
		vals[i], found[i] = junk, true
	}
	ix.GetBatchInto(probes, vals, found)
	gv, gf := ix.GetBatch(probes)
	cb := ix.ContainsBatch(probes)
	if len(gv) != len(probes) || len(gf) != len(probes) || len(cb) != len(probes) {
		t.Fatalf("%s: GetBatch sizes %d/%d, ContainsBatch %d", what, len(gv), len(gf), len(cb))
	}
	for i, p := range probes {
		wv, wok := ix.Get(p)
		if found[i] != wok || vals[i] != wv {
			t.Fatalf("%s: GetBatchInto[%d] key %d: got (%d,%v), want (%d,%v)", what, i, p, vals[i], found[i], wv, wok)
		}
		if gf[i] != wok || gv[i] != wv {
			t.Fatalf("%s: GetBatch[%d] key %d: got (%d,%v), want (%d,%v)", what, i, p, gv[i], gf[i], wv, wok)
		}
		if cb[i] != wok {
			t.Fatalf("%s: ContainsBatch[%d] key %d = %v, want %v", what, i, p, cb[i], wok)
		}
	}
	for i := len(probes); i < len(vals); i++ {
		if vals[i] != junk || !found[i] {
			t.Fatalf("%s: GetBatchInto wrote entry %d past the %d probes", what, i, len(probes))
		}
	}
}

// verifyExplain pins the tracing and cost contract on every
// implementation, wrappers included: a traced Get returns exactly what
// Get returns, the returned cost equals the trace's step-derived totals
// of the very same call (the two derivations cannot drift) and does not
// depend on tracing, an Instrumented wrapper adds exactly that cost to
// its counters, and every recorded SIMD step is self-consistent — its
// position is the popcount evaluation of its recorded mask, and equals
// the number of recorded lanes ≤ the compared value (the traced branch
// is the branch binary search would take).
func verifyExplain(t *testing.T, ix index.Index[uint32, int], ref map[uint32]int) {
	t.Helper()
	ks := sortedKeys(ref)
	var probes []uint32
	if len(ks) > 0 {
		probes = append(probes, ks[0], ks[len(ks)/2], ks[len(ks)-1])
	}
	probes = append(probes, 1001, 2500, 4001) // mostly misses
	in, instrumented := ix.(*index.Instrumented[uint32, int])
	for _, k := range probes {
		var want obs.Cost
		if instrumented {
			want = in.Counters().Read()
		}
		tr := trace.New("get", fmt.Sprint(k))
		v, ok, c := ix.GetTraced(k, tr)
		tr.Finish(ok)
		if instrumented {
			want.Add(c)
			if got := in.Counters().Read(); got != want {
				t.Fatalf("GetTraced(%d) returned cost %+v; counters read %+v, want %+v", k, c, got, want)
			}
		}

		wantV, wantOK := ix.Get(k)
		if ok != wantOK || (ok && v != wantV) {
			t.Fatalf("GetTraced(%d) = (%d,%v), Get = (%d,%v)", k, v, ok, wantV, wantOK)
		}
		if v2, ok2, c2 := ix.GetTraced(k, nil); ok2 != ok || (ok && v2 != v) || c2 != c {
			t.Fatalf("GetTraced(%d, nil) = (%d,%v,%+v), traced = (%d,%v,%+v)", k, v2, ok2, c2, v, ok, c)
		}
		if tr.Found != ok {
			t.Fatalf("trace(%d).Found = %v, want %v", k, tr.Found, ok)
		}
		if tr.Structure == "" {
			t.Fatalf("trace(%d) has no structure name", k)
		}
		if int(c.SIMDComparisons) != tr.SIMDComparisons() ||
			int(c.MaskEvaluations) != tr.MaskEvaluations() ||
			int(c.NodeVisits) != tr.NodeVisits() ||
			int(c.ScalarComparisons) != tr.ScalarComparisons() {
			t.Fatalf("trace(%d) cost parity: returned (simd=%d masks=%d nodes=%d scalar=%d), trace (simd=%d masks=%d nodes=%d scalar=%d)\n%s",
				k, c.SIMDComparisons, c.MaskEvaluations, c.NodeVisits, c.ScalarComparisons,
				tr.SIMDComparisons(), tr.MaskEvaluations(), tr.NodeVisits(), tr.ScalarComparisons(), tr)
		}
		verifyTraceSteps(t, tr, uint64(k))
	}
}

// verifyTraceSteps checks every SIMD step of a trace against its own
// recorded evidence. cmp starts as the full search key and becomes the
// extracted partial key after each trie segment step.
func verifyTraceSteps(t *testing.T, tr *trace.Trace, key uint64) {
	t.Helper()
	cmp := key
	for i, s := range tr.Steps {
		switch s.Kind {
		case trace.KindSegment:
			cmp = uint64(s.Segment)
		case trace.KindSIMD:
			if got := bitmask.PopcountEval(s.Mask, s.Width); got != s.Position {
				t.Fatalf("step %d: position %d != PopcountEval(%#04x,%d) = %d\n%s",
					i, s.Position, s.Mask, s.Width, got, tr)
			}
			le := 0
			for _, lane := range s.Loaded {
				lv, err := strconv.ParseUint(lane, 10, 64)
				if err != nil {
					t.Fatalf("step %d: unparseable lane %q: %v", i, lane, err)
				}
				if lv <= cmp {
					le++
				}
			}
			if le != s.Position {
				t.Fatalf("step %d: position %d but %d of lanes %v are <= %d\n%s",
					i, s.Position, le, s.Loaded, cmp, tr)
			}
		}
	}
}

func verifyStats(t *testing.T, ix index.Index[uint32, int], ref map[uint32]int) {
	t.Helper()
	s := ix.IndexStats()
	if s.Keys != len(ref) {
		t.Fatalf("stats keys %d, want %d", s.Keys, len(ref))
	}
	if len(ref) > 0 {
		if s.Nodes < 1 || s.Height < 1 {
			t.Fatalf("stats shape: %+v", s)
		}
		if s.KeyMemoryBytes <= 0 || s.MemoryBytes < s.KeyMemoryBytes {
			t.Fatalf("stats memory: %+v", s)
		}
	}
}

// TestSamplingUnderMixedLoad exercises always-on sampling concurrently
// with a mutating workload and runtime rate changes — the production
// configuration. Run with -race to verify the lock-free rings and the
// sampler's atomics.
func TestSamplingUnderMixedLoad(t *testing.T) {
	ix := index.NewInstrumented(index.NewSharded[uint32, int](5, func() index.Index[uint32, int] {
		return segtree.New[uint32, int](segtree.Config{
			LeafCap: 6, BranchCap: 6, Layout: kary.DepthFirst, Evaluator: bitmask.Popcount,
		})
	}))
	sp := ix.EnableSampling(2, time.Nanosecond)
	for i := uint32(0); i < 500; i++ {
		ix.Put(i, int(i))
	}

	const workers, ops = 4, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < ops; i++ {
				k := uint32(rng.Intn(1000))
				switch rng.Intn(5) {
				case 0:
					ix.Put(k, i)
				case 1:
					ix.Delete(k)
				case 2:
					ix.GetBatch([]uint32{k, k + 1, k + 2})
				default:
					ix.Get(k)
				}
			}
		}(int64(w + 1))
	}
	// A reader concurrently drains the rings and flips the rate, as a
	// debug endpoint would.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			sp.SetRate(1 + i%3)
			for _, tr := range sp.Sampled() {
				if tr == nil || tr.Op != "get" {
					t.Errorf("malformed sampled trace %+v", tr)
					return
				}
			}
			sp.SlowOps()
			sp.Stats()
		}
	}()
	wg.Wait()
	<-done

	st := sp.Stats()
	if st.Sampled == 0 {
		t.Fatal("no operations sampled under load")
	}
	if st.Ops == 0 {
		t.Fatal("sampler saw no operations")
	}
	for _, tr := range sp.Sampled() {
		if tr.Structure != "segtree" || tr.Duration <= 0 {
			t.Fatalf("sampled trace not finished: %+v", tr)
		}
	}
}
