package kary

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/keys"
	"repro/internal/shape"
)

var _ shape.Shaper = (*Tree[uint32])(nil)

func ascending(n int) []uint8 {
	out := make([]uint8, n)
	for i := range out {
		out[i] = uint8(i)
	}
	return out
}

// A full single-node 17-ary tree: 16 one-byte keys fill one register
// exactly — the ISSUE's quantitative pin for register utilization 1.0.
func TestShapeFullNodeUtilization(t *testing.T) {
	tr := Build(ascending(16), BreadthFirst)
	rep := tr.Shape()
	if rep.Levels != 1 || rep.Nodes != 1 {
		t.Fatalf("levels/nodes = %d/%d, want 1/1", rep.Levels, rep.Nodes)
	}
	if rep.Registers != 1 || rep.FullRegisters != 1 {
		t.Fatalf("registers = %d full of %d, want 1 of 1", rep.FullRegisters, rep.Registers)
	}
	if rep.RegisterUtilization != 1.0 {
		t.Errorf("RegisterUtilization = %v, want 1.0", rep.RegisterUtilization)
	}
	if rep.FillDegree != 1.0 || rep.ReplenishedSlots != 0 || rep.PaddingBytes != 0 {
		t.Errorf("full node reports waste: fill=%v replenished=%d padding=%d",
			rep.FillDegree, rep.ReplenishedSlots, rep.PaddingBytes)
	}
}

// 17 keys force a second level: the breadth-first complete tree stores a
// 1-key root register (15 S_max pads) above one full leaf register.
func TestShapeSeventeenKeys(t *testing.T) {
	tr := Build(ascending(17), BreadthFirst)
	rep := tr.Shape()
	if rep.Levels != 2 || rep.Nodes != 2 {
		t.Fatalf("levels/nodes = %d/%d, want 2/2", rep.Levels, rep.Nodes)
	}
	if rep.Registers != 2 || rep.FullRegisters != 1 {
		t.Errorf("registers = %d full of %d, want 1 of 2", rep.FullRegisters, rep.Registers)
	}
	if rep.RegisterUtilization != 0.5 {
		t.Errorf("RegisterUtilization = %v, want 0.5", rep.RegisterUtilization)
	}
	if rep.ReplenishedSlots != 15 {
		t.Errorf("ReplenishedSlots = %d, want 15 (32 stored − 17 real)", rep.ReplenishedSlots)
	}
	if got, want := rep.FillDegree, 17.0/32.0; got != want {
		t.Errorf("FillDegree = %v, want %v", got, want)
	}
	// Root level holds 1 real key in 16 slots, leaf level 16 in 16.
	if len(rep.LevelFill) != 2 {
		t.Fatalf("LevelFill has %d levels, want 2", len(rep.LevelFill))
	}
	if lf := rep.LevelFill[0]; lf.Keys != 1 || lf.Slots != 16 {
		t.Errorf("root level = %+v, want keys=1 slots=16", lf)
	}
	if lf := rep.LevelFill[1]; lf.Keys != 16 || lf.Slots != 16 {
		t.Errorf("leaf level = %+v, want keys=16 slots=16", lf)
	}
}

// The fully populated two-level 17-ary tree: every register full again.
func TestShapeFull256Node(t *testing.T) {
	tr := Build(ascending(256), BreadthFirst)
	rep := tr.Shape()
	if rep.Levels != 2 || rep.Nodes != 16 {
		t.Fatalf("levels/nodes = %d/%d, want 2/16", rep.Levels, rep.Nodes)
	}
	if rep.Registers != 16 || rep.FullRegisters != 16 {
		t.Errorf("registers = %d full of %d, want 16 of 16", rep.FullRegisters, rep.Registers)
	}
	if rep.RegisterUtilization != 1.0 {
		t.Errorf("RegisterUtilization = %v, want 1.0", rep.RegisterUtilization)
	}
	if rep.ReplenishedSlots != 0 {
		t.Errorf("ReplenishedSlots = %d, want 0", rep.ReplenishedSlots)
	}
}

// Per-slot level assignment and real-slot marking agree with the layout
// transformations on both layouts, across sizes including ones with
// replenishment.
func TestShapeLevelAndSlotConsistency(t *testing.T) {
	for _, layout := range Layouts {
		for _, n := range []int{1, 5, 16, 17, 40, 256, 300} {
			tr := Build(ascending16(n), layout)
			rep := tr.Shape()
			if rep.Keys != n {
				t.Fatalf("%v n=%d: Keys = %d", layout, n, rep.Keys)
			}
			if rep.SlotKeys != n {
				t.Errorf("%v n=%d: SlotKeys = %d, want %d (each real key in exactly one slot)",
					layout, n, rep.SlotKeys, n)
			}
			if rep.Slots != tr.Stored() {
				t.Errorf("%v n=%d: Slots = %d, want stored %d", layout, n, rep.Slots, tr.Stored())
			}
			if rep.Levels != tr.Levels() {
				t.Errorf("%v n=%d: Levels = %d, want %d", layout, n, rep.Levels, tr.Levels())
			}
			if len(rep.LevelFill) != tr.Levels() {
				t.Errorf("%v n=%d: LevelFill spans %d levels, want %d",
					layout, n, len(rep.LevelFill), tr.Levels())
			}
			if rep.TotalBytes != int64(len(tr.data)) {
				t.Errorf("%v n=%d: TotalBytes = %d, want key storage %d",
					layout, n, rep.TotalBytes, len(tr.data))
			}
			total, full := tr.RegisterStats()
			if total != rep.Registers || full != rep.FullRegisters {
				t.Errorf("%v n=%d: RegisterStats (%d,%d) != report (%d,%d)",
					layout, n, total, full, rep.Registers, rep.FullRegisters)
			}
			if rep.ReplenishedSlots != tr.Stored()-n {
				t.Errorf("%v n=%d: ReplenishedSlots = %d, want %d",
					layout, n, rep.ReplenishedSlots, tr.Stored()-n)
			}
		}
	}
}

func ascending16(n int) []uint16 {
	out := make([]uint16, n)
	for i := range out {
		out[i] = uint16(i)
	}
	return out
}

func TestShapeEmpty(t *testing.T) {
	for _, layout := range Layouts {
		rep := Build([]uint32{}, layout).Shape()
		if rep.Keys != 0 || rep.Nodes != 0 || rep.Registers != 0 || rep.TotalBytes != 0 {
			t.Errorf("%v: empty tree reports substance: %+v", layout, rep)
		}
	}
}

func TestShapeStructureNames(t *testing.T) {
	if got := Build([]uint32{1}, BreadthFirst).Shape().Structure; got != "kary-bf" {
		t.Errorf("BF structure = %q, want kary-bf", got)
	}
	if got := Build([]uint32{1}, DepthFirst).Shape().Structure; got != "kary-df" {
		t.Errorf("DF structure = %q, want kary-df", got)
	}
}

// registerStatsOracle counts registers directly: mark the slots of the
// real keys, then count the registers whose every lane is marked.
func registerStatsOracle[K keys.Key](t *Tree[K]) (total, full int) {
	if t.stored == 0 {
		return 0, 0
	}
	lanes := int(t.lanes)
	real := t.realSlots()
	total = t.stored / lanes
	for node := 0; node < total; node++ {
		f := true
		for i := node * lanes; i < (node+1)*lanes; i++ {
			if !real[i] {
				f = false
				break
			}
		}
		if f {
			full++
		}
	}
	return total, full
}

// TestRegisterStatsMatchesOracle pins the tabulated full-register counts
// against the direct count for every key count below limit, both layouts
// and every key width, and along a random history of in-place inserts
// and deletes.
func TestRegisterStatsMatchesOracle(t *testing.T) {
	checkRegisterStats[uint8](t, 256)
	checkRegisterStats[uint16](t, 800)
	checkRegisterStats[int32](t, 800)
	checkRegisterStats[uint64](t, 800)
}

func checkRegisterStats[K keys.Key](t *testing.T, limit int) {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(limit)))
	for _, layout := range Layouts {
		check := func(tr *Tree[K], what string) {
			t.Helper()
			total, full := tr.RegisterStats()
			if wantTotal, wantFull := registerStatsOracle(tr); total != wantTotal || full != wantFull {
				t.Fatalf("%d-byte %v %s: RegisterStats (%d,%d), oracle (%d,%d)",
					keys.Width[K](), layout, what, total, full, wantTotal, wantFull)
			}
		}
		var sorted []K
		for n := 0; n < limit; n++ {
			check(BuildUnchecked(sorted, layout), fmt.Sprintf("Build n=%d", n))
			sorted = append(sorted, K(n))
		}
		tr := BuildUnchecked([]K(nil), layout)
		for i := 0; i < 4*limit; i++ {
			x := K(rng.Intn(limit))
			if rng.Intn(3) == 0 {
				tr.Delete(x)
			} else {
				tr.Insert(x)
			}
			check(tr, fmt.Sprintf("after %d updates (n=%d)", i+1, tr.Len()))
		}
	}
}

func TestRegisterStatsAllocationFree(t *testing.T) {
	for _, layout := range Layouts {
		tr := Build(ascending16(500), layout)
		if allocs := testing.AllocsPerRun(100, func() { tr.RegisterStats() }); allocs != 0 {
			t.Errorf("%v: RegisterStats allocates %v times per call", layout, allocs)
		}
	}
}

// TestFullRegistersConcurrentFirstUse builds a fresh slot map's table
// from several goroutines at once, as concurrent Shape walks of trees
// sharing a geometry do; every caller must see the same counts.
func TestFullRegistersConcurrentFirstUse(t *testing.T) {
	g := geometry{layout: DepthFirst, k: 5, r: 3}
	ref := newSlotMap(g)
	want := make([]int, len(ref.slot)+1)
	for n := range want {
		want[n] = ref.fullRegisters(n, 4)
	}
	sm := newSlotMap(g)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := range want {
				if got := sm.fullRegisters(n, 4); got != want[n] {
					t.Errorf("n=%d: %d full registers, want %d", n, got, want[n])
					return
				}
			}
		}()
	}
	wg.Wait()
}
