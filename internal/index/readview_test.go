package index_test

// Equivalence of the live multi-part indexes and their pinned read
// views: on a quiescent index, every key-range-ordered read through
// Snapshot() must answer exactly what the live Versioned or Sharded
// index answers — and what a sorted reference model says.

import (
	"math"
	"reflect"
	"slices"
	"testing"

	"repro/internal/index"
	"repro/internal/segtree"
	"repro/internal/shape"
)

// readView is the read surface the live indexes and Snapshot share.
type readView interface {
	Len() int
	Min() (uint32, int, bool)
	Max() (uint32, int, bool)
	Ascend(fn func(uint32, int) bool)
	Scan(lo, hi uint32, fn func(uint32, int) bool)
	GetBatch([]uint32) ([]int, []bool)
	ContainsBatch([]uint32) []bool
	IndexStats() index.Stats
	Shape() shape.Report
}

type liveIndex interface {
	index.Index[uint32, int]
	index.Snapshotter[uint32, int]
}

type kv struct {
	k uint32
	v int
}

// collect runs a visiting read and returns what it visited, stopping
// (fn returns false) right after stopAt when stop is set.
func collect(visit func(func(uint32, int) bool), stop bool, stopAt uint32) []kv {
	var out []kv
	visit(func(k uint32, v int) bool {
		out = append(out, kv{k, v})
		return !stop || k != stopAt
	})
	return out
}

// partOf is the key-range routing of an n-way Sharded index over uint32
// keys: the key scaled into [0, n).
func partOf(k uint32, n int) int { return int(uint64(k) * uint64(n) >> 32) }

func TestSnapshotMatchesLiveIndex(t *testing.T) {
	// Keys cluster in the middle of the key space, so the leading and
	// trailing shards of every sharded case stay empty (16 shards:
	// shards 5..10 hold keys; 3 shards: only shard 1).
	const n = 2000
	const lo, hi = 0x5800_0000, 0xA800_0000
	keys := make([]uint32, n)
	for i := range keys {
		keys[i] = lo + uint32(i)*((hi-lo)/n)
	}
	value := func(k uint32) int { return int(k >> 8) }
	ref := make([]kv, n)
	for i, k := range keys {
		ref[i] = kv{k, value(k)}
	}
	// between returns the reference items with a ≤ key ≤ b.
	between := func(a, b uint32) []kv {
		var out []kv
		for _, e := range ref {
			if a <= e.k && e.k <= b {
				out = append(out, e)
			}
		}
		return out
	}

	cases := []struct {
		name      string
		parts     int
		build     func() liveIndex
		structure string
	}{
		{"versioned", 1, func() liveIndex { return newVersionedSegTree() }, "segtree"},
		{"sharded-1", 1, func() liveIndex { return newShardedSegTree(1) }, "sharded/segtree"},
		{"sharded-3", 3, func() liveIndex { return newShardedSegTree(3) }, "sharded/segtree"},
		{"sharded-16", 16, func() liveIndex { return newShardedSegTree(16) }, "sharded/segtree"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Empty index: Min/Max report nothing, on both sides.
			empty := tc.build()
			emptySnap := empty.Snapshot()
			for _, v := range []readView{empty, emptySnap} {
				if _, _, ok := v.Min(); ok {
					t.Error("Min on an empty index reported a key")
				}
				if _, _, ok := v.Max(); ok {
					t.Error("Max on an empty index reported a key")
				}
				if v.Len() != 0 {
					t.Errorf("empty Len = %d", v.Len())
				}
			}
			emptySnap.Release()

			live := tc.build()
			for _, k := range keys {
				live.Put(k, value(k))
			}
			snap := live.Snapshot()
			defer snap.Release()

			// The last key of the first non-empty part: a callback that
			// returns false exactly there must stop the walk at the part
			// boundary, before any later part is visited.
			first := partOf(keys[0], tc.parts)
			partEnd := keys[0]
			for _, k := range keys {
				if partOf(k, tc.parts) == first {
					partEnd = k
				}
			}
			if tc.parts == 3 && (partOf(keys[0], 3) != 1 || partOf(keys[n-1], 3) != 1) {
				t.Fatal("fixture: 3-shard keys are not confined to the middle shard")
			}
			if tc.parts == 16 && (partOf(keys[0], 16) == 0 || partOf(keys[n-1], 16) == 15) {
				t.Fatal("fixture: 16-shard keys reach the first or last shard")
			}
			upToPartEnd := between(0, partEnd)

			for _, side := range []struct {
				name string
				v    readView
			}{{"live", live}, {"snapshot", snap}} {
				v := side.v
				if got := v.Len(); got != n {
					t.Errorf("%s Len = %d, want %d", side.name, got, n)
				}
				if k, val, ok := v.Min(); !ok || k != keys[0] || val != value(keys[0]) {
					t.Errorf("%s Min = %d,%d,%v", side.name, k, val, ok)
				}
				if k, val, ok := v.Max(); !ok || k != keys[n-1] || val != value(keys[n-1]) {
					t.Errorf("%s Max = %d,%d,%v", side.name, k, val, ok)
				}
				if got := collect(v.Ascend, false, 0); !slices.Equal(got, ref) {
					t.Errorf("%s Ascend visited %d items, want %d", side.name, len(got), n)
				}
				if got := collect(v.Ascend, true, partEnd); !slices.Equal(got, upToPartEnd) {
					t.Errorf("%s Ascend early stop at %#x visited %d items, want %d",
						side.name, partEnd, len(got), len(upToPartEnd))
				}

				scans := []struct {
					name   string
					lo, hi uint32
					stop   bool
					want   []kv
				}{
					{"lo>hi", keys[10], keys[5], false, nil},
					{"lo==hi present", keys[7], keys[7], false, between(keys[7], keys[7])},
					{"lo==hi absent", keys[7] + 1, keys[7] + 1, false, nil},
					{"inside one part", keys[100], keys[150], false, between(keys[100], keys[150])},
					{"across all parts", 0, math.MaxUint32, false, ref},
					{"stop on a part's last key", 0, math.MaxUint32, true, upToPartEnd},
				}
				for _, sc := range scans {
					visit := func(fn func(uint32, int) bool) { v.Scan(sc.lo, sc.hi, fn) }
					if got := collect(visit, sc.stop, partEnd); !slices.Equal(got, sc.want) {
						t.Errorf("%s Scan %s [%#x, %#x] visited %d items, want %d",
							side.name, sc.name, sc.lo, sc.hi, len(got), len(sc.want))
					}
				}
			}

			// Batches: empty input, duplicates, and a probe in every one
			// of 16 key slabs (so in every shard, empty ones included).
			batches := [][]uint32{
				nil,
				{},
				{keys[3], keys[3], keys[1999], keys[3], keys[0] + 1, keys[0] + 1},
			}
			var everyPart []uint32
			for s := uint32(0); s < 16; s++ {
				everyPart = append(everyPart, s<<28|0x123)
			}
			everyPart = append(everyPart, keys[500], keys[1500])
			batches = append(batches, everyPart)
			for _, b := range batches {
				lv, lf := live.GetBatch(b)
				sv, sf := snap.GetBatch(b)
				if len(lv) != len(b) || len(lf) != len(b) || len(sv) != len(b) || len(sf) != len(b) {
					t.Fatalf("GetBatch(%d keys) lengths live %d/%d snapshot %d/%d",
						len(b), len(lv), len(lf), len(sv), len(sf))
				}
				for i, k := range b {
					_, present := slices.BinarySearch(keys, k)
					want := 0
					if present {
						want = value(k)
					}
					if lf[i] != present || lv[i] != want || sf[i] != present || sv[i] != want {
						t.Errorf("GetBatch key %#x: live %d,%v snapshot %d,%v, want %d,%v",
							k, lv[i], lf[i], sv[i], sf[i], want, present)
					}
				}
				if lc, sc := live.ContainsBatch(b), snap.ContainsBatch(b); !slices.Equal(lc, lf) || !slices.Equal(sc, sf) {
					t.Errorf("ContainsBatch(%d keys) disagrees with GetBatch", len(b))
				}
			}

			if ls, ss := live.IndexStats(), snap.IndexStats(); ls != ss || ls.Keys != n {
				t.Errorf("IndexStats live %+v snapshot %+v", ls, ss)
			}
			lr, sr := live.Shape(), snap.Shape()
			if lr.Structure != tc.structure {
				t.Errorf("Shape structure %q, want %q", lr.Structure, tc.structure)
			}
			if !reflect.DeepEqual(lr, sr) {
				t.Errorf("Shape differs:\nlive     %+v\nsnapshot %+v", lr, sr)
			}
		})
	}
}

// TestSnapshotRoutesWideKeys reads pinned views over 64-bit keys: keys
// above 2^32, and signed keys on both sides of zero, must route into the
// view's trees for Get, Contains, GetTraced, Scan and GetBatch — for the
// single tree of a Versioned index as for the shards of a Sharded one.
func TestSnapshotRoutesWideKeys(t *testing.T) {
	t.Run("uint64", func(t *testing.T) {
		verifyWideSnapshots(t, []uint64{0, 2, 1<<32 - 2, 1 << 32, 1<<40 + 7, 1 << 63, math.MaxUint64 - 1})
	})
	t.Run("int64", func(t *testing.T) {
		verifyWideSnapshots(t, []int64{math.MinInt64, -1 << 40, -2, 0, 2, 1 << 40, math.MaxInt64 - 1})
	})
}

// verifyWideSnapshots checks snapshots of an index holding the ascending
// keys present (present[i] stores i), each one below an absent key.
func verifyWideSnapshots[K uint64 | int64](t *testing.T, present []K) {
	t.Helper()
	newTree := func() index.Index[K, int] { return segtree.New[K, int](segtree.DefaultConfig[K]()) }
	views := []struct {
		name string
		live interface {
			index.Index[K, int]
			index.Snapshotter[K, int]
		}
	}{
		{"versioned", index.NewVersioned(newTree)},
		{"sharded-16", index.NewSharded(16, newTree)},
	}
	for _, view := range views {
		for i, k := range present {
			view.live.Put(k, i)
		}
		snap := view.live.Snapshot()
		for i, k := range present {
			if v, ok := snap.Get(k); !ok || v != i {
				t.Errorf("%s: Get(%d) = %d,%v, want %d,true", view.name, k, v, ok, i)
			}
			if !snap.Contains(k) {
				t.Errorf("%s: Contains(%d) = false", view.name, k)
			}
			if v, ok, _ := snap.GetTraced(k, nil); !ok || v != i {
				t.Errorf("%s: GetTraced(%d) = %d,%v, want %d,true", view.name, k, v, ok, i)
			}
			if _, ok := snap.Get(k + 1); ok {
				t.Errorf("%s: Get(%d) found an absent key", view.name, k+1)
			}
		}
		var got []K
		snap.Scan(present[0], present[len(present)-1], func(k K, _ int) bool {
			got = append(got, k)
			return true
		})
		if !slices.Equal(got, present) {
			t.Errorf("%s: Scan visited %v, want %v", view.name, got, present)
		}
		if vals, found := snap.GetBatch(present); !slices.Equal(found, slices.Repeat([]bool{true}, len(present))) ||
			vals[len(vals)-1] != len(present)-1 {
			t.Errorf("%s: GetBatch = %v,%v", view.name, vals, found)
		}
		snap.Release()
	}
}
