package trace

import (
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestRecordersAndAccessors(t *testing.T) {
	tr := New("get", "42")
	tr.SetStructure("segtree")
	tr.Node(0, 6, "depth-first", "branch")
	tr.SIMD(0, 4, []string{"3", "9"}, 0xff00, false, 1)
	tr.Branch(1)
	tr.Node(1, 4, "depth-first", "leaf")
	tr.SIMD(0, 4, []string{"40", "42"}, 0x0000, true, 2)
	tr.Scalar(3, 2)
	tr.Finish(true)

	if !tr.Found {
		t.Fatal("Finish did not set Found")
	}
	if tr.Duration <= 0 {
		t.Fatal("Finish did not set Duration")
	}
	if got := tr.SIMDComparisons(); got != 2 {
		t.Fatalf("SIMDComparisons = %d, want 2", got)
	}
	if got := tr.MaskEvaluations(); got != 2 {
		t.Fatalf("MaskEvaluations = %d, want 2", got)
	}
	if got := tr.NodeVisits(); got != 2 {
		t.Fatalf("NodeVisits = %d, want 2", got)
	}
	if got := tr.ScalarComparisons(); got != 3 {
		t.Fatalf("ScalarComparisons = %d, want 3", got)
	}
	// Steps recorded after a Node inherit its depth.
	if tr.Steps[4].Depth != 1 {
		t.Fatalf("SIMD step depth = %d, want inherited 1", tr.Steps[4].Depth)
	}
}

func TestNilTraceIsSafe(t *testing.T) {
	var tr *Trace
	tr.SetStructure("x")
	tr.Node(0, 1, "", "")
	tr.SIMD(0, 1, nil, 0, false, 0)
	tr.Scalar(1, 0)
	tr.Branch(0)
	tr.Segment(0, 0)
	tr.PrefixSkip(0, 0, true)
	tr.FastPath("x", 0)
	tr.Skip(0, "x")
	tr.Shard(0)
	tr.Probe(0, 1, nil, 0, 0)
	tr.Add(Step{})
	tr.Finish(true)
	if tr.SIMDComparisons()+tr.NodeVisits()+tr.MaskEvaluations()+tr.ScalarComparisons() != 0 {
		t.Fatal("nil trace accessors nonzero")
	}
	if tr.Depth() != 0 {
		t.Fatal("nil Depth nonzero")
	}
	if tr.String() != "<nil trace>" {
		t.Fatalf("nil String = %q", tr.String())
	}
}

func TestTruncation(t *testing.T) {
	tr := New("get", "1")
	for i := 0; i < MaxSteps+10; i++ {
		tr.Branch(i)
	}
	if len(tr.Steps) != MaxSteps {
		t.Fatalf("steps = %d, want cap %d", len(tr.Steps), MaxSteps)
	}
	if !tr.Truncated {
		t.Fatal("Truncated not set")
	}
	if !strings.Contains(tr.String(), "truncated") {
		t.Fatal("String missing truncation note")
	}
}

func TestStringRendering(t *testing.T) {
	tr := New("get", "7")
	tr.SetStructure("opt-segtrie")
	tr.Shard(3)
	tr.PrefixSkip(0, 2, true)
	tr.Segment(2, 0x2a)
	tr.Node(2, 17, "breadth-first", "trie")
	tr.SIMD(0, 1, []string{"16", "32"}, 0x0003, false, 0)
	tr.FastPath("full-node", 42)
	tr.Scalar(1, 0)
	tr.Probe(4, 8, []string{"9"}, 0x0001, 0)
	tr.Finish(false)

	s := tr.String()
	for _, want := range []string{
		"get key=7 structure=opt-segtrie miss",
		"totals: nodes=1 simd=2 masks=1 scalar=1",
		"shard -> 3",
		"prefix-matched: 2 omitted levels compared",
		"segment byte 0x2a",
		"node: 17 keys, breadth-first layout (trie)",
		"mask=0x0003",
		"fast path full-node  position=42",
		"binary search: 1 compares",
		"probe @4",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("String missing %q in:\n%s", want, s)
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	tr := New("get", "9")
	tr.SetStructure("segtree")
	tr.Node(0, 3, "depth-first", "leaf")
	tr.SIMD(0, 4, []string{"1", "9"}, 0x00f0, true, 1)
	tr.Finish(true)
	b, err := json.Marshal(tr)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"kind":"node"`, `"kind":"simd"`, `"structure":"segtree"`, `"eq":true`} {
		if !strings.Contains(string(b), want) {
			t.Errorf("JSON missing %q in %s", want, b)
		}
	}
}

func TestRingWrapAndOrder(t *testing.T) {
	r := NewRing[Trace](4)
	if r.Cap() != 4 {
		t.Fatalf("Cap = %d", r.Cap())
	}
	if got := r.Snapshot(); len(got) != 0 {
		t.Fatalf("empty Snapshot len %d", len(got))
	}
	traces := make([]*Trace, 7)
	for i := range traces {
		traces[i] = New("get", string(rune('a'+i)))
		r.Add(traces[i])
	}
	if r.Total() != 7 {
		t.Fatalf("Total = %d", r.Total())
	}
	got := r.Snapshot()
	if len(got) != 4 {
		t.Fatalf("Snapshot len = %d, want 4", len(got))
	}
	// Newest first: traces 6,5,4,3.
	for i, want := range []*Trace{traces[6], traces[5], traces[4], traces[3]} {
		if got[i] != want {
			t.Fatalf("Snapshot[%d] = key %q, want %q", i, got[i].Key, want.Key)
		}
	}
}

// TestRingDrain pins the flight recorder's take-don't-copy read: Drain
// empties the ring (so consecutive diagnostics bundles carry distinct
// evidence) while Total keeps counting.
func TestRingDrain(t *testing.T) {
	r := NewRing[Trace](4)
	if got := r.Drain(); len(got) != 0 {
		t.Fatalf("empty Drain len %d", len(got))
	}
	traces := make([]*Trace, 3)
	for i := range traces {
		traces[i] = New("get", string(rune('a'+i)))
		r.Add(traces[i])
	}
	got := r.Drain()
	if len(got) != 3 {
		t.Fatalf("Drain len = %d, want 3", len(got))
	}
	// Newest first, like Snapshot.
	for i, want := range []*Trace{traces[2], traces[1], traces[0]} {
		if got[i] != want {
			t.Fatalf("Drain[%d] = key %q, want %q", i, got[i].Key, want.Key)
		}
	}
	if left := r.Snapshot(); len(left) != 0 {
		t.Fatalf("ring still holds %d traces after Drain", len(left))
	}
	if r.Total() != 3 {
		t.Fatalf("Total = %d after Drain, want 3 (counting survives)", r.Total())
	}
	// The ring keeps accepting after a drain.
	r.Add(New("get", "z"))
	if got := r.Snapshot(); len(got) != 1 || got[0].Key != "z" {
		t.Fatalf("post-drain Snapshot = %v", got)
	}
}

// TestSamplerDrainSlowOps checks the sampler-level drain: slow ops are
// handed over exactly once, the sampled ring is untouched, and a nil
// sampler drains to nothing.
func TestSamplerDrainSlowOps(t *testing.T) {
	s := NewSampler(1, time.Millisecond)
	slow := New("get", "slow")
	slow.Duration = 2 * time.Millisecond
	s.Record(slow)
	if got := s.DrainSlowOps(); len(got) != 1 || got[0] != slow {
		t.Fatalf("DrainSlowOps = %v", got)
	}
	if got := s.SlowOps(); len(got) != 0 {
		t.Fatalf("SlowOps after drain = %v, want empty", got)
	}
	if got := s.Sampled(); len(got) != 1 {
		t.Fatalf("Sampled after drain = %d, want 1 (sampled ring untouched)", len(got))
	}
	var nilS *Sampler
	if got := nilS.DrainSlowOps(); got != nil {
		t.Fatalf("nil DrainSlowOps = %v", got)
	}
}

func TestRingCapacityRounding(t *testing.T) {
	for _, tc := range []struct{ in, want int }{{0, 1}, {1, 1}, {3, 4}, {5, 8}, {256, 256}} {
		if got := NewRing[Trace](tc.in).Cap(); got != tc.want {
			t.Errorf("NewRing[Trace](%d).Cap() = %d, want %d", tc.in, got, tc.want)
		}
	}
}

func TestSamplerRate(t *testing.T) {
	s := NewSampler(3, 0)
	hits := 0
	for i := 0; i < 30; i++ {
		if s.ShouldSample() {
			hits++
		}
	}
	if hits != 10 {
		t.Fatalf("1-in-3 over 30 ops sampled %d, want 10", hits)
	}
	s.SetRate(0)
	for i := 0; i < 10; i++ {
		if s.ShouldSample() {
			t.Fatal("rate 0 sampled")
		}
	}
	if s.Rate() != 0 {
		t.Fatalf("Rate = %d", s.Rate())
	}
	s.SetRate(1)
	if !s.ShouldSample() {
		t.Fatal("rate 1 did not sample")
	}
}

func TestSamplerSlowLog(t *testing.T) {
	s := NewSampler(1, time.Millisecond)
	fast := New("get", "fast")
	fast.Duration = time.Microsecond
	slow := New("get", "slow")
	slow.Duration = 2 * time.Millisecond
	s.Record(fast)
	s.Record(slow)

	if got := s.Sampled(); len(got) != 2 {
		t.Fatalf("Sampled len = %d", len(got))
	}
	slowOps := s.SlowOps()
	if len(slowOps) != 1 || slowOps[0] != slow {
		t.Fatalf("SlowOps = %v", slowOps)
	}
	st := s.Stats()
	if st.Sampled != 2 || st.Slow != 1 || st.Rate != 1 || st.SlowThresholdNS != int64(time.Millisecond) {
		t.Fatalf("Stats = %+v", st)
	}
	// Threshold change applies to later records.
	s.SetSlowThreshold(time.Microsecond / 2)
	if s.SlowThreshold() != time.Microsecond/2 {
		t.Fatalf("SlowThreshold = %v", s.SlowThreshold())
	}
	s.Record(fast)
	if got := len(s.SlowOps()); got != 2 {
		t.Fatalf("SlowOps after threshold drop = %d", got)
	}
}

func TestSamplerNilSafe(t *testing.T) {
	var s *Sampler
	if s.ShouldSample() {
		t.Fatal("nil ShouldSample true")
	}
	s.SetRate(5)
	s.SetSlowThreshold(time.Second)
	s.Record(New("get", "1"))
	if s.Rate() != 0 || s.SlowThreshold() != 0 {
		t.Fatal("nil getters nonzero")
	}
	if s.Sampled() != nil || s.SlowOps() != nil {
		t.Fatal("nil rings nonempty")
	}
	if st := s.Stats(); st != (SamplerStats{}) {
		t.Fatalf("nil Stats = %+v", st)
	}
}
