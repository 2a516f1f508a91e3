package shape

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestNodeAccumulation(t *testing.T) {
	rep := New("x")
	rep.Node(0, 1, 16)  // 1/16 full: bucket 0
	rep.Node(1, 16, 16) // full: bucket 9
	rep.Node(1, 8, 16)  // half: bucket 5
	rep.KeyBytes = 25
	rep.PointerBytes = 10
	rep.PaddingBytes = 5
	rep.Keys = 20
	rep.Finalize()

	if rep.Nodes != 3 {
		t.Errorf("Nodes = %d, want 3", rep.Nodes)
	}
	if rep.SlotKeys != 25 || rep.Slots != 48 {
		t.Errorf("SlotKeys/Slots = %d/%d, want 25/48", rep.SlotKeys, rep.Slots)
	}
	if got, want := rep.FillDegree, 25.0/48.0; got != want {
		t.Errorf("FillDegree = %v, want %v", got, want)
	}
	if rep.TotalBytes != 40 {
		t.Errorf("TotalBytes = %d, want 40", rep.TotalBytes)
	}
	if rep.BytesPerKey != 2 {
		t.Errorf("BytesPerKey = %v, want 2", rep.BytesPerKey)
	}
	if rep.FillHistogram[0] != 1 || rep.FillHistogram[5] != 1 || rep.FillHistogram[9] != 1 {
		t.Errorf("FillHistogram = %v, want nodes in buckets 0, 5, 9", rep.FillHistogram)
	}
	if len(rep.LevelFill) != 2 {
		t.Fatalf("LevelFill has %d levels, want 2", len(rep.LevelFill))
	}
	if lf := rep.LevelFill[1]; lf.Nodes != 2 || lf.Keys != 24 || lf.Slots != 32 || lf.Fill != 0.75 {
		t.Errorf("LevelFill[1] = %+v, want nodes=2 keys=24 slots=32 fill=0.75", lf)
	}
}

func TestFillBucket(t *testing.T) {
	cases := []struct {
		keys, slots, want int
	}{
		{0, 16, 0}, {1, 16, 0}, {8, 16, 5}, {15, 16, 9}, {16, 16, 9}, {0, 0, 0},
	}
	for _, c := range cases {
		if got := fillBucket(c.keys, c.slots); got != c.want {
			t.Errorf("fillBucket(%d, %d) = %d, want %d", c.keys, c.slots, got, c.want)
		}
	}
}

func TestRegisterUtilization(t *testing.T) {
	rep := New("x")
	rep.Register(3, 1)
	rep.Register(1, 1)
	rep.Finalize()
	if rep.Registers != 4 || rep.FullRegisters != 2 {
		t.Fatalf("registers = %d/%d, want 2/4 full", rep.FullRegisters, rep.Registers)
	}
	if rep.RegisterUtilization != 0.5 {
		t.Errorf("RegisterUtilization = %v, want 0.5", rep.RegisterUtilization)
	}
}

func TestEmptyFinalize(t *testing.T) {
	empty := New("empty")
	rep := empty.Finalize()
	if rep.FillDegree != 0 || rep.BytesPerKey != 0 || rep.RegisterUtilization != 0 {
		t.Errorf("empty report has non-zero ratios: %+v", rep)
	}
}

func TestMerge(t *testing.T) {
	a := New("s")
	a.Node(0, 10, 16)
	a.Register(1, 0)
	a.Keys, a.Levels = 10, 2
	a.KeyBytes, a.PointerBytes, a.PaddingBytes = 10, 80, 6
	a.ReplenishedSlots = 6

	b := New("s")
	b.Node(0, 16, 16)
	b.Node(1, 4, 16)
	b.Register(2, 1)
	b.Keys, b.Levels = 20, 3
	b.KeyBytes, b.PointerBytes, b.PaddingBytes = 20, 160, 12
	b.OmittedLevels, b.PrefixBytes, b.OmittedSavingsBytes = 2, 2, 46

	m := New("sharded/s")
	m.Merge(a)
	m.Merge(b)
	m.Shards = 2
	m.Finalize()

	if m.Keys != 30 || m.Levels != 3 || m.Nodes != 3 || m.Shards != 2 {
		t.Errorf("merged keys/levels/nodes/shards = %d/%d/%d/%d, want 30/3/3/2",
			m.Keys, m.Levels, m.Nodes, m.Shards)
	}
	if m.TotalBytes != 288 {
		t.Errorf("TotalBytes = %d, want 288", m.TotalBytes)
	}
	if m.Registers != 3 || m.FullRegisters != 1 {
		t.Errorf("registers = %d/%d, want 1/3 full", m.FullRegisters, m.Registers)
	}
	if m.OmittedLevels != 2 || m.OmittedSavingsBytes != 46 {
		t.Errorf("omission = %d levels / %d bytes, want 2/46", m.OmittedLevels, m.OmittedSavingsBytes)
	}
	if m.ReplenishedSlots != 6 {
		t.Errorf("ReplenishedSlots = %d, want 6", m.ReplenishedSlots)
	}
	// Level 0 of both shards merges; level 1 only exists in b.
	if len(m.LevelFill) != 2 {
		t.Fatalf("LevelFill has %d levels, want 2", len(m.LevelFill))
	}
	if lf := m.LevelFill[0]; lf.Nodes != 2 || lf.Keys != 26 || lf.Slots != 32 {
		t.Errorf("merged LevelFill[0] = %+v, want nodes=2 keys=26 slots=32", lf)
	}
	if got, want := m.FillDegree, 30.0/48.0; got != want {
		t.Errorf("merged FillDegree = %v, want %v", got, want)
	}
}

func TestStringAndJSON(t *testing.T) {
	rep := New("segtree")
	rep.Node(0, 7, 8)
	rep.Register(1, 0)
	rep.Keys, rep.Levels = 7, 1
	rep.KeyBytes, rep.PaddingBytes, rep.PointerBytes = 56, 8, 56
	rep.ReplenishedSlots = 1
	rep.Finalize()

	s := rep.String()
	for _, want := range []string{
		"structure=segtree", "keys=7", "level 0:", "keys=7/8",
		"replenished-slots=1", "registers=1",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q:\n%s", want, s)
		}
	}

	raw, err := json.Marshal(rep)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back Report
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if back.Keys != rep.Keys || back.FillDegree != rep.FillDegree ||
		back.TotalBytes != rep.TotalBytes || len(back.LevelFill) != 1 {
		t.Errorf("JSON round trip mismatch: got %+v", back)
	}
}

// TestCapacityFill tallies configured capacities beside the slots: the
// capacity fill reads keys over capacity per level and overall, merges
// across reports, and stays 0 for nodes without a capacity.
func TestCapacityFill(t *testing.T) {
	rep := New("btree")
	rep.Node(0, 1, 2)
	rep.NodeCapacity(0, 4)
	rep.Node(1, 4, 4)
	rep.NodeCapacity(1, 4)
	rep.Node(1, 2, 2) // a k-ary node stores only the slots its keys need
	rep.NodeCapacity(1, 4)
	rep.Finalize()
	if rep.Capacity != 12 || rep.CapacityFill != 7.0/12.0 || rep.FillDegree != 7.0/8.0 {
		t.Errorf("capacity %d fill %v degree %v, want 12, 7/12, 7/8", rep.Capacity, rep.CapacityFill, rep.FillDegree)
	}
	if lf := rep.LevelFill[1]; lf.Capacity != 8 || lf.CapacityFill != 0.75 {
		t.Errorf("level 1 = %+v, want capacity 8 and capacity fill 0.75", lf)
	}
	if s := rep.String(); !strings.Contains(s, "capacity-fill=0.5833") || !strings.Contains(s, "capacity=8 capacity-fill=0.7500") {
		t.Errorf("String() lacks the capacity fill:\n%s", s)
	}
	m := New("sharded")
	m.Merge(rep)
	m.Merge(rep)
	if m.Finalize(); m.Capacity != 24 || m.LevelFill[1].Capacity != 16 || m.CapacityFill != rep.CapacityFill {
		t.Errorf("merged capacity %d/%d fill %v", m.Capacity, m.LevelFill[1].Capacity, m.CapacityFill)
	}
	trie := New("segtrie")
	trie.Node(0, 3, 16)
	if trie.Finalize(); trie.CapacityFill != 0 || strings.Contains(trie.String(), "capacity") {
		t.Errorf("a report without capacities reads capacity fill %v:\n%s", trie.CapacityFill, trie.String())
	}
}

// TestLaneNodes tallies nodes by lane width, merges them across reports
// and prints them on the simd line; a report without lanes prints none.
func TestLaneNodes(t *testing.T) {
	r := New("segtree")
	r.Lanes(1, 3)
	r.Lanes(8, 2)
	r.Lanes(3, 7) // not a lane width: ignored
	o := New("segtree")
	o.Lanes(1, 1)
	o.Lanes(2, 4)
	r.Merge(o)
	if want := [len(LaneWidths)]int{4, 4, 0, 2}; r.LaneNodes != want {
		t.Fatalf("LaneNodes = %v, want %v", r.LaneNodes, want)
	}
	if s := r.Finalize().String(); !strings.Contains(s, "lane-nodes: w1=4 w2=4 w4=0 w8=2\n") {
		t.Errorf("rendering lacks the lane nodes:\n%s", s)
	}
	b := New("btree")
	if s := b.Finalize().String(); strings.Contains(s, "lane-nodes") {
		t.Errorf("a report without lanes renders them:\n%s", s)
	}
}
