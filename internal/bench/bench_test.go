package bench

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"

	"repro/internal/bitmask"
	"repro/internal/kary"
	"repro/internal/keys"
	"repro/internal/shape"
	"repro/internal/workload"
)

func TestFormatTable(t *testing.T) {
	out := FormatTable([]string{"a", "long-header"}, [][]string{
		{"xxxxxx", "1"},
		{"y", "2"},
	})
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines: %d", len(lines))
	}
	if !strings.HasPrefix(lines[0], "a      ") || !strings.Contains(lines[0], "long-header") {
		t.Fatalf("header: %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "------") {
		t.Fatalf("separator: %q", lines[1])
	}
}

func TestWorkbenchBuildsForestAndProbes(t *testing.T) {
	wb := NewWorkbench[uint8](workload.FiveMB, 500, 1,
		SegTreeBuilder[uint8](kary.BreadthFirst, bitmask.Popcount))
	if len(wb.Trees) < 2 {
		t.Fatalf("expected a forest for 8-bit 5MB, got %d trees", len(wb.Trees))
	}
	if len(wb.Probes) != 500 || len(wb.TreePick) != 500 {
		t.Fatalf("probe plan sizes: %d %d", len(wb.Probes), len(wb.TreePick))
	}
	// All probes must hit (drawn from loaded keys).
	hits := 0
	for i, p := range wb.Probes {
		if wb.Trees[wb.TreePick[i]].Contains(p) {
			hits++
		}
	}
	if hits != 500 {
		t.Fatalf("hits %d want 500", hits)
	}
	if ns := wb.RunBest(2); ns <= 0 {
		t.Fatalf("ns/op %f", ns)
	}
}

func TestStaticExperimentsProduceTables(t *testing.T) {
	if !strings.Contains(Table2(), "17") {
		t.Fatal("table2 lacks k=17")
	}
	t3 := Table3()
	for _, want := range []string{"2296", "4056", "3880", "256", "408", "242"} {
		if !strings.Contains(t3, want) {
			t.Fatalf("table3 lacks %s:\n%s", want, t3)
		}
	}
	rec := &Recorder{}
	mem := Memory(10000, rec)
	if !strings.Contains(mem, "7.9") && !strings.Contains(mem, "8.0") {
		t.Fatalf("memory table lacks the ~8x reduction:\n%s", mem)
	}
	// 4 structures × (2 byte metrics + 9 shape metrics).
	if got := len(rec.Measurements()); got != 44 {
		t.Fatalf("memory recorded %d measurements, want 44", got)
	}
	var sawOmission, sawUtilization bool
	for _, m := range rec.Measurements() {
		if m.Class != "shape" {
			continue
		}
		if m.Structure == "Optimized Seg-Trie" && m.Metric == "omitted-levels" && m.Value > 0 {
			sawOmission = true
		}
		if m.Metric == "register-utilization" && m.Value > 0 && m.Value <= 1 {
			sawUtilization = true
		}
	}
	if !sawOmission {
		t.Error("memory shape metrics lack positive optimized-trie omitted levels")
	}
	if !sawUtilization {
		t.Error("memory shape metrics lack a register-utilization ratio")
	}
}

// TestRecorderJSON verifies the machine-readable output path: concurrent
// records, JSON round-trip, and the nil-recorder no-op contract the
// experiments rely on.
func TestRecorderJSON(t *testing.T) {
	var nilRec *Recorder
	nilRec.Record(Measurement{Experiment: "x"}) // must not panic
	if nilRec.Measurements() != nil {
		t.Fatal("nil recorder returned measurements")
	}

	rec := &Recorder{}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rec.Record(Measurement{Experiment: "e", Structure: "s",
				Metric: "m", Value: float64(i), Unit: "ns/op"})
		}(i)
	}
	wg.Wait()

	var buf bytes.Buffer
	if err := rec.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back []Measurement
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("round-trip: %v\n%s", err, buf.String())
	}
	if len(back) != 8 {
		t.Fatalf("round-trip count %d", len(back))
	}
	if back[0].Experiment != "e" || back[0].Unit != "ns/op" {
		t.Fatalf("round-trip content: %+v", back[0])
	}
}

// TestBatchAndShardedExperiments smoke-tests the extension experiments at
// a tiny probe count on the small classes and checks they emit
// measurements for every cell. (Batch's public entry point runs the
// 5 MB and 100 MB classes — too heavy for the test suite.)
func TestBatchAndShardedExperiments(t *testing.T) {
	o := Options{Probes: 200, Rounds: 1, Seed: 1, Rec: &Recorder{}}
	out := batchOver(o, []workload.Class{workload.Single, workload.FiveMB})
	for _, want := range []string{"btree", "segtree", "opt-segtrie", "Single", "5 MB"} {
		if !strings.Contains(out, want) {
			t.Fatalf("batch table lacks %q:\n%s", want, out)
		}
	}
	// 2 classes × 4 structures × 2 metrics (serial, GetBatch).
	if got := len(o.Rec.Measurements()); got != 16 {
		t.Fatalf("batch recorded %d measurements, want 16", got)
	}

	o.Rec = &Recorder{}
	out = Sharded(o)
	for _, want := range []string{"1", "4", "16", "Sharded-16"} {
		if !strings.Contains(out, want) {
			t.Fatalf("sharded table lacks %q:\n%s", want, out)
		}
	}
	// 3 goroutine counts × 2 structures.
	if got := len(o.Rec.Measurements()); got != 6 {
		t.Fatalf("sharded recorded %d measurements, want 6", got)
	}
}

// TestFigureTreesKeepKeyLanes builds the Seg-Trees of the figures —
// SegTreeBuilder's for Figures 9 and 10, Figure11SegTree's at both of
// Figure 11's node sizes — from dense keys, which NarrowLanes would
// narrow, and requires every node at the key type's width: the figures
// measure the paper's fixed-width node, not narrow-lane compression.
func TestFigureTreesKeepKeyLanes(t *testing.T) {
	if got := paperConfig[uint64]().Lanes; got != kary.KeyLanes {
		t.Fatalf("paperConfig lanes %v, want key lanes", got)
	}
	for _, layout := range kary.Layouts {
		keyLanesOnly[uint16](t, layout, SegTreeBuilder[uint16](layout, bitmask.Popcount))
		keyLanesOnly[uint32](t, layout, SegTreeBuilder[uint32](layout, bitmask.Popcount))
		keyLanesOnly[uint64](t, layout, SegTreeBuilder[uint64](layout, bitmask.Popcount))
		for _, caps := range []int{16, 242} {
			keyLanesOnly[uint64](t, layout, func(ks []uint64) Searcher[uint64] {
				return Figure11SegTree(caps, layout, ks, make([]uint64, len(ks)))
			})
		}
	}
}

// keyLanesOnly builds a tree of 5,000 ascending keys and requires all
// its nodes at the key type's width.
func keyLanesOnly[K keys.Key](t *testing.T, layout kary.Layout, build func([]K) Searcher[K]) {
	t.Helper()
	rep := build(workload.Ascending[K](5000)).(shape.Shaper).Shape()
	for i, w := range shape.LaneWidths {
		if w != keys.Width[K]() && rep.LaneNodes[i] != 0 {
			t.Errorf("%d-bit %v: %d nodes at %d-byte lanes", 8*keys.Width[K](), layout, rep.LaneNodes[i], w)
		}
	}
}
