package index_test

// IndexStats is the projection of Shape: every structure, layout and key
// width, and a Sharded composite, must report exactly StatsOf(Shape())
// at every checkpoint of a random put/delete history.

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bitmask"
	"repro/internal/btree"
	"repro/internal/index"
	"repro/internal/kary"
	"repro/internal/keys"
	"repro/internal/segtree"
	"repro/internal/segtrie"
)

func TestIndexStatsIsStatsOfShape(t *testing.T) {
	statsOfShapeAllStructures[uint8](t)
	statsOfShapeAllStructures[uint16](t)
	statsOfShapeAllStructures[int32](t)
	statsOfShapeAllStructures[uint64](t)
	t.Run("sharded", func(t *testing.T) {
		s := index.NewSharded[uint32, int](5, func() index.Index[uint32, int] {
			return segtree.New[uint32, int](segtree.Config{LeafCap: 8, BranchCap: 8,
				Layout: kary.DepthFirst, Evaluator: bitmask.Popcount})
		})
		checkStatsOfShape[uint32](t, s, 3)
	})
}

func statsOfShapeAllStructures[K keys.Key](t *testing.T) {
	for _, layout := range kary.Layouts {
		// Small node capacities give the trees several levels and many
		// splits and merges within a short history.
		scfg := segtree.Config{LeafCap: 6, BranchCap: 5, Layout: layout, Evaluator: bitmask.Popcount}
		tcfg := segtrie.Config{Layout: layout, Evaluator: bitmask.Popcount}
		for name, ix := range map[string]index.Index[K, int]{
			"segtree":     segtree.New[K, int](scfg),
			"segtrie":     segtrie.New[K, int](tcfg),
			"opt-segtrie": segtrie.NewOptimized[K, int](tcfg),
		} {
			t.Run(fmt.Sprintf("%s/%v/%d-byte", name, layout, keys.Width[K]()), func(t *testing.T) {
				checkStatsOfShape(t, ix, int64(layout))
			})
		}
	}
	t.Run(fmt.Sprintf("btree/%d-byte", keys.Width[K]()), func(t *testing.T) {
		checkStatsOfShape(t, index.Index[K, int](btree.New[K, int](btree.Config{LeafCap: 4, BranchCap: 4})), 2)
	})
}

// checkStatsOfShape runs 3,000 random puts (dense and sparse keys mixed)
// and deletes of stored keys, comparing the two reports every 100 ops.
func checkStatsOfShape[K keys.Key](t *testing.T, ix index.Index[K, int], seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var stored []K
	for op := 1; op <= 3000; op++ {
		if len(stored) > 0 && rng.Intn(5) < 2 {
			i := rng.Intn(len(stored))
			ix.Delete(stored[i])
			stored[i] = stored[len(stored)-1]
			stored = stored[:len(stored)-1]
		} else {
			k := K(rng.Uint64() >> uint(rng.Intn(64)))
			if ix.Put(k, op) {
				stored = append(stored, k)
			}
		}
		if op%100 != 0 {
			continue
		}
		if got, want := ix.IndexStats(), index.StatsOf(ix.Shape()); got != want {
			t.Fatalf("after %d ops: IndexStats = %+v, StatsOf(Shape) = %+v", op, got, want)
		}
	}
}
