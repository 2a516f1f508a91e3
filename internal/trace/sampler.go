package trace

import (
	"sync/atomic"
	"time"
)

// Sampler decides which operations get traced and retains the results:
// 1-in-N sampling into a ring of recent traces, plus a slow-op ring
// capturing the full trace of every sampled operation that exceeded a
// latency threshold. Rate and threshold are runtime-adjustable; all
// methods are safe for concurrent use and nil-safe, so a hot path can
// hold a possibly-nil *Sampler and call ShouldSample unconditionally.
//
// When the rate is 0 the sampler is off and ShouldSample costs one
// atomic load. Only sampled operations carry a trace, so the slow-op
// log sees slow operations at the sampling rate — set the rate to 1 to
// catch every one.
//
// The zero Sampler is the bare 1-in-N counter (SetRate, Rate,
// ShouldSample, Stats) with no rings; reqtrace.Tracer draws its root
// spans through one. Only NewSampler allocates the rings the retaining
// methods (Record, Sampled, SlowOps, DrainSlowOps) need.
type Sampler struct {
	every  atomic.Int64 // sample 1 in every operations; <= 0 disables
	slowNS atomic.Int64 // sampled ops at least this slow enter the slow ring

	ops     atomic.Uint64 // operations offered while sampling was on
	sampled atomic.Uint64
	slow    atomic.Uint64

	ring     *Ring[Trace]
	slowRing *Ring[Trace]
}

// Default ring capacities: enough recent traces to inspect a live
// workload without holding a meaningful amount of memory.
const (
	defaultRingCap     = 256
	defaultSlowRingCap = 64
)

// NewSampler returns a sampler tracing 1 in every operations (0
// disables) and flagging sampled operations at or above slowThreshold
// (0 disables the slow log).
func NewSampler(every int, slowThreshold time.Duration) *Sampler {
	s := &Sampler{ring: NewRing[Trace](defaultRingCap), slowRing: NewRing[Trace](defaultSlowRingCap)}
	s.SetRate(every)
	s.SetSlowThreshold(slowThreshold)
	return s
}

// SetRate changes the sampling rate to 1-in-every; 0 or negative turns
// sampling off.
func (s *Sampler) SetRate(every int) {
	if s == nil {
		return
	}
	s.every.Store(int64(every))
}

// Rate returns the current 1-in-N rate (0 when off).
func (s *Sampler) Rate() int {
	if s == nil {
		return 0
	}
	n := s.every.Load()
	if n < 0 {
		return 0
	}
	return int(n)
}

// SetSlowThreshold changes the slow-op latency threshold; 0 disables the
// slow log.
func (s *Sampler) SetSlowThreshold(d time.Duration) {
	if s == nil {
		return
	}
	s.slowNS.Store(int64(d))
}

// SlowThreshold returns the current slow-op threshold.
func (s *Sampler) SlowThreshold() time.Duration {
	if s == nil {
		return 0
	}
	return time.Duration(s.slowNS.Load())
}

// ShouldSample reports whether the caller should trace this operation.
// Disabled (nil sampler or rate 0) it costs one atomic load and no
// state change.
func (s *Sampler) ShouldSample() bool {
	if s == nil {
		return false
	}
	n := s.every.Load()
	if n <= 0 {
		return false
	}
	return s.ops.Add(1)%uint64(n) == 0
}

// Record retains a finished trace: always into the sampled ring, and
// into the slow ring when its duration reaches the threshold.
func (s *Sampler) Record(t *Trace) {
	if s == nil || t == nil {
		return
	}
	s.sampled.Add(1)
	s.ring.Add(t)
	if th := s.slowNS.Load(); th > 0 && t.Duration >= time.Duration(th) {
		s.slow.Add(1)
		s.slowRing.Add(t)
	}
}

// Sampled returns the retained sampled traces, newest first.
func (s *Sampler) Sampled() []*Trace {
	if s == nil {
		return nil
	}
	return s.ring.Snapshot()
}

// SlowOps returns the retained slow-op traces, newest first.
func (s *Sampler) SlowOps() []*Trace {
	if s == nil {
		return nil
	}
	return s.slowRing.Snapshot()
}

// DrainSlowOps returns the retained slow-op traces, newest first, and
// clears the slow ring, so consecutive diagnostics bundles do not repeat
// the same evidence. The sampled ring is left intact — "recent traces"
// stays a rolling view.
func (s *Sampler) DrainSlowOps() []*Trace {
	if s == nil {
		return nil
	}
	return s.slowRing.Drain()
}

// SamplerStats is a point-in-time summary of a sampler.
type SamplerStats struct {
	// Ops counts operations offered while sampling was on.
	Ops uint64 `json:"ops"`
	// Sampled counts traces recorded.
	Sampled uint64 `json:"sampled"`
	// Slow counts sampled traces that crossed the slow threshold.
	Slow uint64 `json:"slow"`
	// Rate is the current 1-in-N sampling rate (0 when off).
	Rate int `json:"rate"`
	// SlowThresholdNS is the current slow-op threshold in nanoseconds.
	SlowThresholdNS int64 `json:"slow_threshold_ns"`
}

// Stats summarizes the sampler's counters and settings.
func (s *Sampler) Stats() SamplerStats {
	if s == nil {
		return SamplerStats{}
	}
	return SamplerStats{
		Ops:             s.ops.Load(),
		Sampled:         s.sampled.Load(),
		Slow:            s.slow.Load(),
		Rate:            s.Rate(),
		SlowThresholdNS: s.slowNS.Load(),
	}
}
