// Package shape is the structural-introspection layer of the module: a
// single Report type describing the tree shape that *explains* the cost
// figures the obs and trace layers record. The paper's own evaluation
// turns on exactly these quantities — §3.3 replenishment with S_max
// determines how many stored slots are padding, §4 level omission
// determines how many levels a Seg-Trie search skips, and the §6
// experiments compare memory footprint and fill degree across
// structures. Schlegel et al.'s linearized-layout memory analysis and
// Zhou & Ross's register-utilization argument (see PAPERS.md) motivate
// the two density ratios the report carries: bytes-per-key and the
// fraction of 16-byte compare registers that are fully populated with
// real keys.
//
// Every index structure implements Shaper, and its Shape is the one
// walk that measures it: index.StatsOf projects a report onto the
// IndexStats summary. The Sharded wrapper merges its shards' reports
// and the Instrumented wrapper exports report fields as Prometheus
// gauges. cmd/segserve serves the report at
// /debug/shape, cmd/treedump renders it with -shape, and cmd/segbench
// records footprint fields into the BENCH JSON next to ns/op.
package shape

import (
	"fmt"
	"strings"
)

// HistogramBuckets is the number of fill-degree deciles in
// Report.FillHistogram: bucket i counts nodes with fill in
// [i/10, (i+1)/10), except the last bucket which includes fill = 1.
const HistogramBuckets = 10

// Shaper is implemented by every structure that can describe its own
// shape: the four index structures, the Sharded and Instrumented
// wrappers, raw kary.Tree linearizations and the Zhou-Ross list.
type Shaper interface {
	// Shape walks the structure and returns a finalized Report. It is a
	// full traversal — intended for snapshots and debug endpoints, not
	// per-operation paths.
	Shape() Report
}

// LevelFill summarizes one level of a structure: how many nodes sit on
// it and how full they are. "Level" is the structure's own notion —
// B+-Tree level for the trees, trie level for the tries, k-ary tree
// level for a raw linearization.
type LevelFill struct {
	Level int `json:"level"`
	Nodes int `json:"nodes"`
	// Keys counts real keys stored on the level (separators included).
	Keys int `json:"keys"`
	// Slots counts allocated key slots on the level, §3.3 replenishment
	// pads included.
	Slots int `json:"slots"`
	// Fill is Keys/Slots.
	Fill float64 `json:"fill"`
	// Capacity sums the configured key capacities of the level's nodes
	// (0 where nodes have none).
	Capacity int `json:"capacity,omitempty"`
	// CapacityFill is Keys/Capacity.
	CapacityFill float64 `json:"capacity_fill,omitempty"`
}

// Report is the structure-independent shape summary. Counts and byte
// tallies are accumulated with Node/Register/byte-field additions; the
// derived ratios (FillDegree, BytesPerKey, RegisterUtilization,
// TotalBytes and the per-level Fill values) are computed by Finalize.
type Report struct {
	// Structure names the described structure as the benchmarks do
	// (segtree, segtrie, opt-segtrie, btree, ...).
	Structure string `json:"structure"`
	// Keys is the number of stored items (not separator or partial-key
	// slots).
	Keys int `json:"keys"`
	// Levels is the height in node searches: B+-Tree height, trie level
	// count, or k-ary tree levels for a raw linearization.
	Levels int `json:"levels"`
	// Nodes is the total node count.
	Nodes int `json:"nodes"`
	// Shards is the shard count for a merged sharded report, 0 otherwise.
	Shards int `json:"shards,omitempty"`

	// LevelFill breaks nodes and fill down per level, root first.
	LevelFill []LevelFill `json:"level_fill,omitempty"`
	// FillHistogram buckets every node by fill decile.
	FillHistogram [HistogramBuckets]int `json:"fill_histogram"`
	// SlotKeys is the number of real keys across all nodes, separators
	// and partial keys included.
	SlotKeys int `json:"slot_keys"`
	// Slots is the number of allocated key slots across all nodes,
	// replenishment pads included.
	Slots int `json:"slots"`
	// FillDegree is SlotKeys/Slots — the paper's §6 fill-degree axis.
	FillDegree float64 `json:"fill_degree"`
	// Capacity sums the configured key capacities of the nodes, for
	// structures whose nodes have one (the B+-Trees' LeafCap and
	// BranchCap); 0 for the others. Slots can differ from it: a k-ary
	// node stores only the slots its keys need.
	Capacity int `json:"capacity,omitempty"`
	// CapacityFill is SlotKeys/Capacity: how full the nodes are against
	// what they may hold, the classic B-Tree fill factor. A half-full
	// k-ary node reads about 0.5 here even where FillDegree is near 1.
	CapacityFill float64 `json:"capacity_fill,omitempty"`

	// KeyBytes is storage holding real keys (stored prefixes included).
	KeyBytes int64 `json:"key_bytes"`
	// PointerBytes is child- and value-pointer storage at eight bytes per
	// pointer (the paper's §5.1 accounting).
	PointerBytes int64 `json:"pointer_bytes"`
	// PaddingBytes is storage holding §3.3 replenishment pads — slots
	// whose S_max copies exist only to keep registers loadable.
	PaddingBytes int64 `json:"padding_bytes"`
	// TotalBytes = KeyBytes + PointerBytes + PaddingBytes: the
	// structures' MemoryBytes accounting.
	TotalBytes int64 `json:"total_bytes"`
	// BytesPerKey is TotalBytes/Keys.
	BytesPerKey float64 `json:"bytes_per_key"`

	// Registers counts the 16-byte SIMD register loads the structure's
	// key storage linearizes into (stored slots / lanes per register).
	Registers int `json:"registers"`
	// FullRegisters counts registers whose every lane holds a real key —
	// no replenishment pads, no slack.
	FullRegisters int `json:"full_registers"`
	// RegisterUtilization is FullRegisters/Registers: 1.0 means every
	// SIMD comparison processes a register of nothing but real keys
	// (Zhou & Ross's utilization argument).
	RegisterUtilization float64 `json:"register_utilization"`

	// LaneNodes counts the nodes that search with SIMD registers by lane
	// width: index i counts nodes of 1<<i-byte lanes (see LaneWidths).
	// A k-ary node at its key type's width is the paper's; a narrower
	// one stores its keys relative to a base.
	LaneNodes [len(LaneWidths)]int `json:"lane_nodes"`

	// ReplenishedSlots counts the §3.3 S_max replenishment pads.
	ReplenishedSlots int `json:"replenished_slots"`
	// OmittedLevels counts trie levels compressed into stored prefixes
	// (§4 level omission); 0 for structures without omission.
	OmittedLevels int `json:"omitted_levels"`
	// PrefixBytes is the storage the stored prefixes occupy.
	PrefixBytes int `json:"prefix_bytes"`
	// OmittedSavingsBytes is the measured byte saving of level omission:
	// each omitted level would otherwise be a single-key trie node (one
	// 16-slot partial-key register plus one child pointer) and instead
	// costs one stored prefix byte.
	OmittedSavingsBytes int64 `json:"omitted_savings_bytes"`
}

// LaneWidths lists the lane widths in bytes that Report.LaneNodes counts,
// in its order.
var LaneWidths = [...]int{1, 2, 4, 8}

// New returns an empty report for the named structure.
func New(structure string) Report {
	return Report{Structure: structure}
}

// Node tallies one node: keys real keys in slots allocated slots on the
// given level. Slots may be 0 for an empty root.
func (r *Report) Node(level, keys, slots int) {
	r.Nodes++
	r.SlotKeys += keys
	r.Slots += slots
	lf := r.level(level)
	lf.Nodes++
	lf.Keys += keys
	lf.Slots += slots
	r.FillHistogram[fillBucket(keys, slots)]++
}

// NodeCapacity tallies the configured key capacity of one node on the
// given level, beside its Node call.
func (r *Report) NodeCapacity(level, capacity int) {
	r.Capacity += capacity
	r.level(level).Capacity += capacity
}

// level returns the level's entry of LevelFill, adding levels up to it.
func (r *Report) level(level int) *LevelFill {
	for len(r.LevelFill) <= level {
		r.LevelFill = append(r.LevelFill, LevelFill{Level: len(r.LevelFill)})
	}
	return &r.LevelFill[level]
}

// fillBucket maps a node's fill ratio to its histogram decile.
func fillBucket(keys, slots int) int {
	if slots <= 0 {
		return 0
	}
	b := keys * HistogramBuckets / slots
	if b >= HistogramBuckets {
		b = HistogramBuckets - 1
	}
	return b
}

// Register tallies SIMD register loads: total registers, of which full
// hold nothing but real keys.
func (r *Report) Register(total, full int) {
	r.Registers += total
	r.FullRegisters += full
}

// Lanes tallies nodes searching with lanes of w bytes (1, 2, 4 or 8).
func (r *Report) Lanes(w, nodes int) {
	for i, lw := range LaneWidths {
		if lw == w {
			r.LaneNodes[i] += nodes
		}
	}
}

// Finalize computes the derived ratios from the accumulated tallies and
// returns the report for chaining.
func (r *Report) Finalize() Report {
	r.TotalBytes = r.KeyBytes + r.PointerBytes + r.PaddingBytes
	if r.Keys > 0 {
		r.BytesPerKey = float64(r.TotalBytes) / float64(r.Keys)
	} else {
		r.BytesPerKey = 0
	}
	if r.Slots > 0 {
		r.FillDegree = float64(r.SlotKeys) / float64(r.Slots)
	} else {
		r.FillDegree = 0
	}
	r.CapacityFill = ratio(r.SlotKeys, r.Capacity)
	if r.Registers > 0 {
		r.RegisterUtilization = float64(r.FullRegisters) / float64(r.Registers)
	} else {
		r.RegisterUtilization = 0
	}
	for i := range r.LevelFill {
		lf := &r.LevelFill[i]
		if lf.Slots > 0 {
			lf.Fill = float64(lf.Keys) / float64(lf.Slots)
		}
		lf.CapacityFill = ratio(lf.Keys, lf.Capacity)
	}
	return *r
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// Merge accumulates o into r — the per-shard aggregation of the Sharded
// index. Counts, bytes, registers and histograms sum; Levels takes the
// deepest shard; per-level breakdowns merge by level. The caller
// re-Finalizes after the last merge.
func (r *Report) Merge(o Report) {
	r.Keys += o.Keys
	if o.Levels > r.Levels {
		r.Levels = o.Levels
	}
	r.Nodes += o.Nodes
	r.SlotKeys += o.SlotKeys
	r.Slots += o.Slots
	r.Capacity += o.Capacity
	r.KeyBytes += o.KeyBytes
	r.PointerBytes += o.PointerBytes
	r.PaddingBytes += o.PaddingBytes
	r.Registers += o.Registers
	r.FullRegisters += o.FullRegisters
	r.ReplenishedSlots += o.ReplenishedSlots
	r.OmittedLevels += o.OmittedLevels
	r.PrefixBytes += o.PrefixBytes
	r.OmittedSavingsBytes += o.OmittedSavingsBytes
	for i := range o.FillHistogram {
		r.FillHistogram[i] += o.FillHistogram[i]
	}
	for i := range o.LaneNodes {
		r.LaneNodes[i] += o.LaneNodes[i]
	}
	for _, lf := range o.LevelFill {
		dst := r.level(lf.Level)
		dst.Nodes += lf.Nodes
		dst.Keys += lf.Keys
		dst.Slots += lf.Slots
		dst.Capacity += lf.Capacity
	}
}

// String renders the report as the multi-line text /debug/shape and
// treedump -shape print.
func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "structure=%s keys=%d levels=%d nodes=%d", r.Structure, r.Keys, r.Levels, r.Nodes)
	if r.Shards > 0 {
		fmt.Fprintf(&b, " shards=%d", r.Shards)
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "fill: degree=%.4f slots=%d/%d histogram=%v",
		r.FillDegree, r.SlotKeys, r.Slots, r.FillHistogram)
	if r.Capacity > 0 {
		fmt.Fprintf(&b, " capacity-fill=%.4f", r.CapacityFill)
	}
	b.WriteByte('\n')
	for _, lf := range r.LevelFill {
		fmt.Fprintf(&b, "  level %d: nodes=%d keys=%d/%d fill=%.4f",
			lf.Level, lf.Nodes, lf.Keys, lf.Slots, lf.Fill)
		if lf.Capacity > 0 {
			fmt.Fprintf(&b, " capacity=%d capacity-fill=%.4f", lf.Capacity, lf.CapacityFill)
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "memory: total=%d key=%d pointer=%d padding=%d bytes/key=%.2f\n",
		r.TotalBytes, r.KeyBytes, r.PointerBytes, r.PaddingBytes, r.BytesPerKey)
	fmt.Fprintf(&b, "simd: registers=%d full=%d utilization=%.4f",
		r.Registers, r.FullRegisters, r.RegisterUtilization)
	if r.LaneNodes != [len(LaneWidths)]int{} {
		b.WriteString(" lane-nodes:")
		for i, w := range LaneWidths {
			fmt.Fprintf(&b, " w%d=%d", w, r.LaneNodes[i])
		}
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "replenished-slots=%d omitted-levels=%d prefix-bytes=%d omitted-savings-bytes=%d\n",
		r.ReplenishedSlots, r.OmittedLevels, r.PrefixBytes, r.OmittedSavingsBytes)
	return b.String()
}
