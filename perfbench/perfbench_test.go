package main

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"
)

func TestSpreadKeysAreOrderPreservingAndDistinct(t *testing.T) {
	for _, n := range []int{1, 2, 17, 100_000} {
		for seed := int64(1); seed <= 3; seed++ {
			ks := spreadKeys(rand.New(rand.NewSource(seed)), n)
			if len(ks) != n {
				t.Fatalf("n=%d: got %d keys", n, len(ks))
			}
			for i := 1; i < n; i++ {
				if ks[i] <= ks[i-1] {
					t.Fatalf("n=%d seed=%d: key %d (%d) not above key %d (%d)", n, seed, i, ks[i], i-1, ks[i-1])
				}
			}
		}
	}
}

func TestRandomKeysAreAscendingAndDistinct(t *testing.T) {
	ks := randomKeys(rand.New(rand.NewSource(7)), 10_000)
	if len(ks) != 10_000 {
		t.Fatalf("got %d keys", len(ks))
	}
	for i := 1; i < len(ks); i++ {
		if ks[i] <= ks[i-1] {
			t.Fatalf("key %d not above its predecessor", i)
		}
	}
}

// shardWrites loads keys into the benchmark's index and returns the
// writes each shard published.
func shardWrites(keys []uint64) []uint64 {
	ix := newIndex()
	fill(ix, keys)
	vs := ix.Versions()
	for i := range vs {
		vs[i]--
	}
	return vs
}

// Sharded routes on the top 32 key bits: dense keys all land in shard 0,
// spread keys fill every shard evenly.
func TestShardSpread(t *testing.T) {
	const n = 16_000
	dense := shardWrites(denseKeys(n))
	if dense[0] != n {
		t.Errorf("dense keys: shard 0 took %d of %d writes", dense[0], n)
	}
	spread := shardWrites(spreadKeys(rand.New(rand.NewSource(1)), n))
	for i, w := range spread {
		if w < n/shards-1 || w > n/shards+1 {
			t.Errorf("spread keys: shard %d took %d writes, want %d ± 1", i, w, n/shards)
		}
	}
}

func TestValuesCarryTheirKey(t *testing.T) {
	if !validValue(42, packValue(42, 3), 3) {
		t.Error("value written for 42 rejected")
	}
	if validValue(43, packValue(42, 3), 3) {
		t.Error("value written for 42 accepted for 43")
	}
	if validValue(42, packValue(42, 4), 3) {
		t.Error("value from a generation not yet issued accepted")
	}
}

func TestHistQuantileWithinOnePercent(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var h hist
	xs := make([]float64, 100_000)
	for i := range xs {
		xs[i] = math.Exp(rng.Float64()*14) + 100 // 100 ns to ~1.2 ms
		h.observe(time.Duration(xs[i]))
	}
	sort.Float64s(xs)
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		want := xs[int(math.Ceil(q*float64(len(xs))))-1]
		if got := h.quantile(q); math.Abs(got-want)/want > 0.01 {
			t.Errorf("q=%g: got %.1f, want %.1f within 1%%", q, got, want)
		}
	}
}

// On a clock that advances in 10 ns steps, a 3 % shift of a 170 ns
// latency must move the median by about 3 %, not by 0 or one whole step.
func TestHistQuantileFollowsShiftsFinerThanTheClockStep(t *testing.T) {
	median := func(shift float64) float64 {
		rng := rand.New(rand.NewSource(1))
		var h hist
		for range 200_000 {
			x := 170*(1+shift) + rng.NormFloat64()*15
			h.observe(time.Duration(math.Floor(x/10) * 10))
		}
		return h.quantile(0.5)
	}
	base := median(0)
	for _, shift := range []float64{0.01, 0.03} {
		got := median(shift)/base - 1
		if math.Abs(got-shift) > 0.005 {
			t.Errorf("shift %.2f: median moved %.4f", shift, got)
		}
	}
}

// countAbove returns how many samples of h lie in buckets at or above
// ns.
func countAbove(h *hist, ns float64) uint64 {
	var n uint64
	for i, c := range h.counts {
		if lo, _ := bucketSpan(i); lo >= ns {
			n += c
		}
	}
	return n
}

// A target that stalls once must raise the latency of every request
// that fell due during the stall, not only the stalled one.
func TestOpenLoopChargesLatencyFromDueTime(t *testing.T) {
	const stall = 50 * time.Millisecond
	calls := 0
	op := func(int, *rand.Rand) (kind, time.Time, error) {
		calls++
		if calls == 20 {
			time.Sleep(stall)
		}
		return kGet, time.Now(), nil
	}
	// 1000 requests per second from one worker: about 50 fall due
	// during the stall, the first of them ~50 ms before it ends.
	p := openLoop(context.Background(), 1, 1000, 300*time.Millisecond, 1, 1, op)
	if p.dropped != 0 || p.failed != 0 {
		t.Fatalf("dropped %d, failed %d", p.dropped, p.failed)
	}
	// Requests due in the first 30 ms of the stall waited at least 20 ms.
	if n := countAbove(p.all[kGet], float64(20*time.Millisecond)); n < 25 {
		t.Errorf("%d requests charged ≥ 20 ms, want ≥ 25 (the stall was hidden)", n)
	}
	if n := countAbove(&p.late, float64(20*time.Millisecond)); n < 25 {
		t.Errorf("%d requests sent ≥ 20 ms late, want ≥ 25", n)
	}
}

// mapStore is an in-memory store; lie, when set, corrupts the value of
// one key.
type mapStore struct {
	m   map[uint64]uint64
	lie uint64
}

func (s *mapStore) Get(_ context.Context, k uint64) (uint64, bool, error) {
	v, ok := s.m[k]
	if k == s.lie {
		v ^= 1
	}
	return v, ok, nil
}

func (s *mapStore) Put(_ context.Context, k, v uint64) error {
	s.m[k] = v
	return nil
}

func (s *mapStore) GetBatch(ctx context.Context, ks []uint64) ([]uint64, []bool, error) {
	vs, found := make([]uint64, len(ks)), make([]bool, len(ks))
	for i, k := range ks {
		vs[i], found[i], _ = s.Get(ctx, k)
	}
	return vs, found, nil
}

func (s *mapStore) Scan(_ context.Context, lo, hi uint64, limit int, buf []uint64) ([]uint64, error) {
	var ks []uint64
	for k := range s.m {
		if k >= lo && k <= hi {
			ks = append(ks, k)
		}
	}
	slices.Sort(ks)
	return append(buf, ks[:min(limit, len(ks))]...), nil
}

func runStub(t *testing.T, lie uint64) *report {
	t.Helper()
	keys := denseKeys(200)
	s := &mapStore{m: map[uint64]uint64{}, lie: lie}
	for _, k := range keys {
		s.m[k] = packValue(k, 0)
	}
	d := newDrive(context.Background(), keys, uniform(len(keys)), updateMix, []store{s})
	rep := newReport()
	p := closedLoop(context.Background(), 1, 50*time.Millisecond, 1, 1, d.op)
	rep.add(p)
	return rep
}

func TestFailuresCountWrongValues(t *testing.T) {
	if rep := runStub(t, math.MaxUint64); rep.failed != 0 || len(rep.problems) != 0 {
		t.Fatalf("honest store: failed %d, problems %v", rep.failed, rep.problems)
	}
	rep := runStub(t, 7)
	if rep.failed == 0 || len(rep.problems) == 0 {
		t.Fatalf("lying store: failed %d of %d, problems %v", rep.failed, rep.attempted, rep.problems)
	}
	if rep.failed >= rep.attempted {
		t.Fatalf("every op failed (%d of %d), want only those reading key 7", rep.failed, rep.attempted)
	}
}

func TestCheckScanWantsExactAscendingRange(t *testing.T) {
	want := []uint64{3, 5, 8}
	if err := checkScan([]uint64{3, 5, 8}, want); err != nil {
		t.Errorf("exact scan rejected: %v", err)
	}
	for _, got := range [][]uint64{{5, 3, 8}, {3, 5}, {3, 5, 8, 9}, {2, 3, 5}} {
		if checkScan(got, want) == nil {
			t.Errorf("scan %v accepted for %v", got, want)
		}
	}
}

func TestMixCheck(t *testing.T) {
	m := mix{kGet: 50, kPut: 40, kScan: 10}
	if err := m.check([numKinds]uint64{5000, 4000, 1000, 0}); err != nil {
		t.Errorf("exact mix rejected: %v", err)
	}
	if m.check([numKinds]uint64{9000, 500, 500, 0}) == nil {
		t.Error("skewed mix accepted")
	}
	rng := rand.New(rand.NewSource(1))
	var counts [numKinds]uint64
	for i := 0; i < 100_000; i++ {
		counts[m.draw(rng)]++
	}
	if err := m.check(counts); err != nil {
		t.Errorf("drawn mix rejected: %v", err)
	}
}
