package reqtrace

import (
	crand "crypto/rand"
	"encoding/binary"
	"sync/atomic"
	"time"

	"repro/internal/trace"
)

// The sampling decision sits on the per-operation hot path of the
// workload driver and segserve's request middleware: with sampling off it
// must stay at one atomic load, allocation-free. The directive keeps the
// //simdtree:hotpath annotations checked by cmd/simdvet.
//
//simdtree:kernels ^Tracer\.(ShouldSample|StartRoot)$

// Tracer mints and retains spans: 1-in-N sampling for root spans, always
// continuing sampled remote contexts, finished spans into a lock-free
// bounded ring. All methods are safe for concurrent use and nil-safe, so
// a caller can hold a possibly-nil *Tracer and call StartRoot
// unconditionally.
//
// When the rate is 0 the tracer is off: StartRoot costs one atomic load
// and returns nil, and every Span method on that nil is a pointer check.
type Tracer struct {
	// roots is the 1-in-N root-span draw: a bare trace.Sampler, the same
	// counter that samples descent traces (its trace rings stay
	// unallocated). on points at roots exactly while the rate is
	// non-zero, so StartRoot's off path is one inlinable pointer load —
	// calling the nil-safe Sampler.Rate there instead would push
	// StartRoot past the compiler's inlining budget.
	roots trace.Sampler
	on    atomic.Pointer[trace.Sampler]

	started  atomic.Uint64
	finished atomic.Uint64

	// idState seeds span/trace ID generation: a random base from
	// crypto/rand mixed with an atomic counter through splitmix64, so IDs
	// are unique per tracer and unpredictable across restarts without
	// taking a lock or draining the entropy pool per span.
	idState atomic.Uint64

	ring *trace.Ring[Span]
}

// DefaultRingCap retains enough recent spans to inspect a live workload
// (/debug/requests) without holding meaningful memory.
const DefaultRingCap = 256

// NewTracer returns a tracer sampling 1 in every root spans (0 disables)
// retaining up to ringCap finished spans (<= 0 uses DefaultRingCap).
func NewTracer(every, ringCap int) *Tracer {
	if ringCap <= 0 {
		ringCap = DefaultRingCap
	}
	t := &Tracer{ring: trace.NewRing[Span](ringCap)}
	t.SetRate(every)
	var seed [8]byte
	if _, err := crand.Read(seed[:]); err == nil {
		t.idState.Store(binary.LittleEndian.Uint64(seed[:]))
	} else {
		// Entropy exhaustion is not worth failing construction over; fall
		// back to the clock. IDs stay unique (the counter), just guessable.
		t.idState.Store(uint64(time.Now().UnixNano()))
	}
	return t
}

// SetRate changes the root-span sampling rate to 1-in-every; 0 or
// negative turns root sampling off (remote sampled contexts are still
// continued).
func (t *Tracer) SetRate(every int) {
	if t == nil {
		return
	}
	if every <= 0 {
		t.on.Store(nil)
		return
	}
	t.roots.SetRate(every)
	t.on.Store(&t.roots)
}

// Rate returns the current 1-in-N root sampling rate (0 when off).
func (t *Tracer) Rate() int {
	if t == nil {
		return 0
	}
	return t.on.Load().Rate()
}

// ShouldSample reports whether the caller's next root span would be
// sampled, consuming one sampling slot. Disabled (nil tracer or rate 0)
// it costs one atomic load and no state change.
//
//simdtree:hotpath
func (t *Tracer) ShouldSample() bool {
	if t == nil {
		return false
	}
	return t.on.Load().ShouldSample()
}

// StartRoot starts a new sampled root span named name, or returns nil
// when this operation lost the 1-in-N draw (or the tracer is nil/off) —
// the hot-path entry point. The off path is deliberately small enough to
// inline: a nil check plus one atomic load, with the sampling draw and
// span construction pushed into startRootSampling so the caller pays no
// function-call overhead per untraced operation.
//
//simdtree:hotpath
func (t *Tracer) StartRoot(name string) *Span {
	if t == nil || t.on.Load() == nil {
		return nil
	}
	return t.startRootSampling(name)
}

// startRootSampling is StartRoot's slow path: the rate is non-zero, so
// run the 1-in-N draw and mint the span on a win.
func (t *Tracer) startRootSampling(name string) *Span {
	if !t.ShouldSample() {
		return nil
	}
	return t.newSpan(name, SpanContext{}, false)
}

// StartRemote continues the trace an incoming traceparent carries: a new
// span in the same trace with the remote span as parent. Unsampled or
// invalid contexts return nil — the W3C contract is that an unsampled
// caller does not want downstream recording — as does a nil tracer.
func (t *Tracer) StartRemote(name string, parent SpanContext) *Span {
	if t == nil || !parent.Valid() || !parent.Sampled {
		return nil
	}
	return t.newSpan(name, parent, true)
}

// newSpan mints IDs and builds the span (the sampled, allocating path).
//
//simdtree:prepublish
func (t *Tracer) newSpan(name string, parent SpanContext, remote bool) *Span {
	t.started.Add(1)
	sp := &Span{
		SpanID: SpanID(t.nextID()),
		Name:   name,
		Start:  time.Now(),
	}
	if remote {
		sp.TraceID = parent.TraceID
		sp.Parent = parent.SpanID
		sp.Remote = true
	} else {
		sp.TraceID = TraceID{Hi: t.nextID(), Lo: t.nextID()}
	}
	return sp
}

// nextID returns a non-zero 64-bit ID: one atomic counter step pushed
// through the splitmix64 finalizer.
func (t *Tracer) nextID() uint64 {
	for {
		z := t.idState.Add(0x9e3779b97f4a7c15)
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		if z != 0 {
			return z
		}
	}
}

// Finish stamps the span's duration and retains it in the ring. Nil
// spans (the unsampled path) and nil tracers are no-ops, so callers can
// finish unconditionally; like StartRoot, the no-op path is small enough
// to inline.
func (t *Tracer) Finish(sp *Span) {
	if t == nil || sp == nil {
		return
	}
	t.retire(sp)
}

// retire is Finish's sampled path.
func (t *Tracer) retire(sp *Span) {
	sp.finish()
	t.finished.Add(1)
	t.ring.Add(sp)
}

// Spans returns the retained finished spans, newest first.
func (t *Tracer) Spans() []*Span {
	if t == nil {
		return nil
	}
	return t.ring.Snapshot()
}

// Drain returns the retained finished spans, newest first, and clears
// the ring — the consume-once form a flight-recorder bundle uses.
func (t *Tracer) Drain() []*Span {
	if t == nil {
		return nil
	}
	return t.ring.Drain()
}

// TracerStats is a point-in-time summary of a tracer.
type TracerStats struct {
	// Ops counts operations offered to the root sampler while it was on.
	Ops uint64 `json:"ops"`
	// Started and Finished count spans minted and retained.
	Started  uint64 `json:"started"`
	Finished uint64 `json:"finished"`
	// Rate is the current 1-in-N root sampling rate (0 when off).
	Rate int `json:"rate"`
}

// Stats summarizes the tracer's counters and settings.
func (t *Tracer) Stats() TracerStats {
	if t == nil {
		return TracerStats{}
	}
	return TracerStats{
		Ops:      t.roots.Stats().Ops,
		Started:  t.started.Load(),
		Finished: t.finished.Load(),
		Rate:     t.Rate(),
	}
}
