// Package trace records the actual descent of one search operation — the
// per-request half of the observability story, next to the aggregate
// counters of internal/obs.
//
// A Trace is an ordered list of Steps: one per node entered, one per SIMD
// compare-and-evaluate (the §2.1 five-step sequence: load, broadcast,
// compare, movemask, evaluate), one per branch taken, plus the Seg-Trie
// specifics (segment byte extracted per level, §4 fast paths, compressed-
// prefix skips of the optimized trie). Each SIMD step carries the raw
// movemask and the evaluator's verdict, so a trace replays Algorithms 4/5
// exactly as the kernels executed them.
//
// Like the obs.Cost each descent returns, traces are threaded
// explicitly: every traced search path takes a *Trace parameter and
// records nothing when it is nil. A global sink would interleave the
// steps of concurrent operations; the explicit parameter keeps one
// operation's descent in one Trace and keeps the disabled path at
// literally zero cost — a nil comparison per level, no allocation.
package trace

import (
	"time"
)

// Kind classifies one Step of a descent.
type Kind uint8

const (
	// KindNode marks entering a node: key count, layout, node role.
	KindNode Kind = iota
	// KindSIMD is one execution of the §2.1 five-step SIMD sequence on a
	// k-ary tree level: the loaded lanes, the raw greater-than movemask
	// and the evaluator's verdict (Algorithms 1–3).
	KindSIMD
	// KindScalar is a run of scalar key comparisons (binary search in the
	// baseline B+-Tree, the single-key fast path of the Seg-Trie).
	KindScalar
	// KindBranch is the child index taken when leaving a node.
	KindBranch
	// KindSegment is the 8-bit partial key extracted for one trie level
	// (§4: the search key split into most-significant-first segments).
	KindSegment
	// KindPrefixSkip is the optimized Seg-Trie's compressed-prefix
	// comparison: a run of omitted levels checked with plain byte
	// compares (§4, lazy expansion).
	KindPrefixSkip
	// KindFastPath marks a search resolved without the k-ary descent: the
	// §4 empty/single-key/full-node trie fast paths, the §3.3
	// replenishment short-circuit (v ≥ S_max), or a pad-region skip of
	// the depth-first layout.
	KindFastPath
	// KindShard is the key-range routing decision of a sharded index.
	KindShard
	// KindProbe is one SIMD register probe of the flat Zhou-Ross list —
	// a compare without a tree structure behind it.
	KindProbe
)

// String returns a short lower-case name for the kind.
func (k Kind) String() string {
	switch k {
	case KindNode:
		return "node"
	case KindSIMD:
		return "simd"
	case KindScalar:
		return "scalar"
	case KindBranch:
		return "branch"
	case KindSegment:
		return "segment"
	case KindPrefixSkip:
		return "prefix-skip"
	case KindFastPath:
		return "fast-path"
	case KindShard:
		return "shard"
	case KindProbe:
		return "probe"
	default:
		return "unknown"
	}
}

// MarshalText renders the kind name into JSON-encoded traces.
func (k Kind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// Step is one event of a descent. Which fields are meaningful depends on
// Kind; unused fields are zero and omitted from JSON.
type Step struct {
	Kind Kind `json:"kind"`
	// Depth is the structure-level descent depth the step belongs to
	// (B+-Tree level, trie level). Steps recorded inside a node inherit
	// the depth of the last KindNode step.
	Depth int `json:"depth"`
	// Level is the k-ary level within the node's linearized search tree
	// (KindSIMD), or the slot offset of a flat probe (KindProbe).
	Level int `json:"level,omitempty"`
	// Keys is the node's real key count (KindNode).
	Keys int `json:"keys,omitempty"`
	// Layout names the node's linearization: "breadth-first" or
	// "depth-first" (KindNode; empty for the scalar B+-Tree).
	Layout string `json:"layout,omitempty"`
	// Loaded holds the formatted lane values one 128-bit load fetched
	// (KindSIMD, KindProbe), including §3.3 replenishment pads.
	Loaded []string `json:"loaded,omitempty"`
	// Width is the lane width in bytes (KindSIMD, KindProbe).
	Width int `json:"width,omitempty"`
	// Mask is the raw 16-bit movemask of the greater-than compare
	// (KindSIMD, KindProbe).
	Mask uint16 `json:"mask"`
	// Eq reports whether the fused any-lane-equal check of this level hit
	// (KindSIMD on Lookup descents).
	Eq bool `json:"eq,omitempty"`
	// Position is the step's verdict: the evaluated mask position
	// (KindSIMD/KindProbe), the branch index taken (KindBranch), the
	// binary-search result (KindScalar), the shard chosen (KindShard),
	// the matched byte count (KindPrefixSkip) or the fast-path result
	// (KindFastPath).
	Position int `json:"position"`
	// SIMD counts 128-bit SIMD comparisons this step performed.
	SIMD int `json:"simd,omitempty"`
	// Scalar counts scalar key comparisons this step performed.
	Scalar int `json:"scalar,omitempty"`
	// Segment is the 8-bit partial key of the level (KindSegment).
	Segment uint8 `json:"segment,omitempty"`
	// Note carries step detail: the node role for KindNode
	// ("branch"/"leaf"/"trie"), the fast path taken for KindFastPath
	// ("empty-node", "single-key", "full-node", "smax-short-circuit",
	// "pad-region", "missing-leaf-node"), or prefix-skip outcome.
	Note string `json:"note,omitempty"`
}

// MaxSteps bounds a single trace; descents are height-bounded so real
// traces stay far below it, but a defensive cap keeps a misbehaving
// caller from growing a trace without bound.
const MaxSteps = 1024

// Trace is the recorded descent of one operation. Construct with New,
// thread through a GetTraced call, then Finish. A Trace is not safe for
// concurrent use; each operation gets its own.
//
// A trace lives in two phases: recording (one goroutine appends steps
// through the prepublish methods below) and published (Ring.Add stores
// the pointer into the lock-free ring, after which concurrent readers
// snapshot it without synchronization — so no mutation may follow the
// store). The publishguard analyzer checks the discipline inside this
// package.
//
//simdtree:published
type Trace struct {
	// Structure names the concrete structure searched ("segtree",
	// "segtrie", "opt-segtrie", "btree", "zhouross", "kary").
	Structure string `json:"structure"`
	// Op is the operation class ("get", "search").
	Op string `json:"op"`
	// Key is the formatted search key.
	Key string `json:"key"`
	// Found reports the operation's outcome (set by Finish).
	Found bool `json:"found"`
	// Start is when the trace was created.
	Start time.Time `json:"start"`
	// Duration is the operation latency (set by Finish).
	Duration time.Duration `json:"duration_ns"`
	// Steps is the recorded descent, in execution order.
	Steps []Step `json:"steps"`
	// Truncated reports that MaxSteps was exceeded and steps were
	// dropped.
	Truncated bool `json:"truncated,omitempty"`

	depth int // current structure depth, set by Node, inherited by steps
}

// New starts a trace for one operation on the formatted key.
func New(op, key string) *Trace {
	return &Trace{Op: op, Key: key, Start: time.Now()}
}

// Finish records the outcome and the elapsed time since New.
//
//simdtree:prepublish
func (t *Trace) Finish(found bool) {
	if t == nil {
		return
	}
	t.Found = found
	t.Duration = time.Since(t.Start)
}

// Add appends one step verbatim. The convenience recorders below fill
// Depth automatically; Add leaves the step untouched.
//
//simdtree:prepublish
func (t *Trace) Add(s Step) {
	if t == nil {
		return
	}
	if len(t.Steps) >= MaxSteps {
		t.Truncated = true
		return
	}
	t.Steps = append(t.Steps, s)
}

// SetStructure names the concrete structure; the innermost index of a
// wrapper stack calls it, overwriting whatever a wrapper set.
//
//simdtree:prepublish
func (t *Trace) SetStructure(name string) {
	if t == nil {
		return
	}
	t.Structure = name
}

// Depth returns the structure depth of the last Node step.
func (t *Trace) Depth() int {
	if t == nil {
		return 0
	}
	return t.depth
}

// Node records entering a node at the given structure depth; subsequent
// steps inherit the depth.
//
//simdtree:prepublish
func (t *Trace) Node(depth, keyCount int, layout, note string) {
	if t == nil {
		return
	}
	t.depth = depth
	t.Add(Step{Kind: KindNode, Depth: depth, Keys: keyCount, Layout: layout, Note: note})
}

// SIMD records one five-step SIMD sequence on k-ary level within the
// current node: the loaded lanes, raw movemask, fused-equality outcome
// and evaluated position.
//
//simdtree:prepublish
func (t *Trace) SIMD(level, width int, loaded []string, mask uint16, eq bool, pos int) {
	if t == nil {
		return
	}
	t.Add(Step{Kind: KindSIMD, Depth: t.depth, Level: level, Width: width,
		Loaded: loaded, Mask: mask, Eq: eq, Position: pos, SIMD: 1})
}

// Scalar records a run of scalar comparisons resolving to pos.
//
//simdtree:prepublish
func (t *Trace) Scalar(steps, pos int) {
	if t == nil {
		return
	}
	t.Add(Step{Kind: KindScalar, Depth: t.depth, Scalar: steps, Position: pos})
}

// Branch records taking child idx out of the current node.
//
//simdtree:prepublish
func (t *Trace) Branch(idx int) {
	if t == nil {
		return
	}
	t.Add(Step{Kind: KindBranch, Depth: t.depth, Position: idx})
}

// Segment records the 8-bit partial key extracted for a trie level.
//
//simdtree:prepublish
func (t *Trace) Segment(depth int, seg uint8) {
	if t == nil {
		return
	}
	t.Add(Step{Kind: KindSegment, Depth: depth, Segment: seg})
}

// PrefixSkip records an optimized-trie compressed-prefix comparison
// starting at depth: matched bytes compared equal; ok is false when the
// run ended in a mismatch (search terminates).
//
//simdtree:prepublish
func (t *Trace) PrefixSkip(depth, matched int, ok bool) {
	if t == nil {
		return
	}
	note := "prefix-matched"
	if !ok {
		note = "prefix-mismatch"
	}
	t.Add(Step{Kind: KindPrefixSkip, Depth: depth, Position: matched, Note: note})
}

// FastPath records a search resolved without a k-ary descent.
//
//simdtree:prepublish
func (t *Trace) FastPath(note string, pos int) {
	if t == nil {
		return
	}
	t.Add(Step{Kind: KindFastPath, Depth: t.depth, Position: pos, Note: note})
}

// Skip records a pad-region skip of the depth-first layout at the given
// k-ary level: no load happens, the level's digit stays 0.
//
//simdtree:prepublish
func (t *Trace) Skip(level int, note string) {
	if t == nil {
		return
	}
	t.Add(Step{Kind: KindFastPath, Depth: t.depth, Level: level, Note: note})
}

// Shard records the key-range routing decision of a sharded index.
//
//simdtree:prepublish
func (t *Trace) Shard(idx int) {
	if t == nil {
		return
	}
	t.Add(Step{Kind: KindShard, Depth: t.depth, Position: idx})
}

// Probe records one flat-list SIMD register probe at slot offset.
//
//simdtree:prepublish
func (t *Trace) Probe(offset, width int, loaded []string, mask uint16, pos int) {
	if t == nil {
		return
	}
	t.Add(Step{Kind: KindProbe, Depth: t.depth, Level: offset, Width: width,
		Loaded: loaded, Mask: mask, Position: pos, SIMD: 1})
}

// SIMDComparisons totals the 128-bit SIMD compares of the descent — the
// quantity the paper's §4 comparison model predicts (a full 17-ary trie
// node costs exactly 2, an 8-level 64-bit descent 16).
func (t *Trace) SIMDComparisons() int {
	if t == nil {
		return 0
	}
	n := 0
	for i := range t.Steps {
		n += t.Steps[i].SIMD
	}
	return n
}

// MaskEvaluations counts the bitmask evaluations (one per KindSIMD step).
func (t *Trace) MaskEvaluations() int {
	if t == nil {
		return 0
	}
	n := 0
	for i := range t.Steps {
		if t.Steps[i].Kind == KindSIMD {
			n++
		}
	}
	return n
}

// NodeVisits counts the nodes entered.
func (t *Trace) NodeVisits() int {
	if t == nil {
		return 0
	}
	n := 0
	for i := range t.Steps {
		if t.Steps[i].Kind == KindNode {
			n++
		}
	}
	return n
}

// ScalarComparisons totals the scalar key comparisons of the descent.
func (t *Trace) ScalarComparisons() int {
	if t == nil {
		return 0
	}
	n := 0
	for i := range t.Steps {
		n += t.Steps[i].Scalar
	}
	return n
}
