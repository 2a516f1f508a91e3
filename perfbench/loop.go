package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

type kind int

const (
	kGet kind = iota
	kPut
	kScan
	kBatch
	numKinds
)

var kindNames = [numKinds]string{"get", "put", "scan", "batch"}

// mix holds the op weights of a workload, indexed by kind. Every weight
// is spelled out: unlike driver.ParseSpec, nothing defaults.
type mix [numKinds]int

func (m mix) draw(rng *rand.Rand) kind {
	sum := 0
	for _, w := range m {
		sum += w
	}
	x := rng.Intn(sum)
	for k, w := range m {
		if x < w {
			return kind(k)
		}
		x -= w
	}
	panic("unreachable: draw past the weight sum")
}

// check reports whether the realized op counts match the weights: each
// kind's share must lie within four standard errors plus one point of
// its weight.
func (m mix) check(counts [numKinds]uint64) error {
	var n uint64
	for _, c := range counts {
		n += c
	}
	sum := 0
	for _, w := range m {
		sum += w
	}
	if n == 0 {
		return fmt.Errorf("no ops ran")
	}
	for k, w := range m {
		p := float64(w) / float64(sum)
		got := float64(counts[k]) / float64(n)
		tol := 0.01 + 4*math.Sqrt(p*(1-p)/float64(n))
		if math.Abs(got-p) > tol {
			return fmt.Errorf("op mix: %s share %.4f, want %.4f ± %.4f", kindNames[k], got, p, tol)
		}
	}
	return nil
}

// opFunc runs one op for worker w. It returns the op's kind, the time
// the backend call returned (answer checks run after it, outside the
// timed span) and an error when the call failed or the answer was wrong.
type opFunc func(w int, rng *rand.Rand) (kind, time.Time, error)

// recorder collects one worker's measurements, bucketed into equal time
// slices of the phase so that medians over slices damp short stalls.
type recorder struct {
	start    time.Time
	slice    time.Duration
	lat      [numKinds][]*hist
	ops      []uint64
	late     hist
	count    [numKinds]uint64
	failed   uint64
	firstErr error
}

func newRecorder(start time.Time, dur time.Duration, slices int) *recorder {
	r := &recorder{start: start, slice: dur / time.Duration(slices), ops: make([]uint64, slices)}
	for k := range r.lat {
		r.lat[k] = make([]*hist, slices)
		for i := range r.lat[k] {
			r.lat[k][i] = new(hist)
		}
	}
	return r
}

// record files one op under the slice holding at.
func (r *recorder) record(k kind, at time.Time, d time.Duration, err error) {
	r.count[k]++
	if err != nil {
		r.failed++
		if r.firstErr == nil {
			r.firstErr = fmt.Errorf("%s: %w", kindNames[k], err)
		}
		return
	}
	i := int(at.Sub(r.start) / r.slice)
	i = max(0, min(i, len(r.ops)-1))
	r.lat[k][i].observe(d)
	r.ops[i]++
}

// phase is the merged result of one measured stretch of a workload.
type phase struct {
	elapsed  time.Duration
	slice    time.Duration
	lat      [numKinds][]*hist
	all      [numKinds]*hist
	ops      []uint64
	late     hist
	count    [numKinds]uint64
	failed   uint64
	dropped  uint64 // open loop: requests never sent because the backlog overran
	firstErr error
}

func mergeRecorders(recs []*recorder, elapsed time.Duration) *phase {
	p := &phase{elapsed: elapsed, slice: recs[0].slice, ops: make([]uint64, len(recs[0].ops))}
	for k := range p.lat {
		p.all[k] = new(hist)
		p.lat[k] = make([]*hist, len(p.ops))
		for i := range p.lat[k] {
			p.lat[k][i] = new(hist)
		}
	}
	for _, r := range recs {
		for k := range r.lat {
			for i, h := range r.lat[k] {
				p.lat[k][i].merge(h)
				p.all[k].merge(h)
			}
			p.count[k] += r.count[k]
		}
		for i, n := range r.ops {
			p.ops[i] += n
		}
		p.late.merge(&r.late)
		p.failed += r.failed
		if p.firstErr == nil {
			p.firstErr = r.firstErr
		}
	}
	return p
}

func (p *phase) attempted() uint64 {
	n := p.dropped
	for _, c := range p.count {
		n += c
	}
	return n
}

// quantile returns the q-quantile of kind k's latency in nanoseconds:
// the median of the per-slice quantiles when every slice holds at least
// ten samples beyond the quantile, else the quantile of the whole phase.
func (p *phase) quantile(k kind, q float64) float64 {
	need := uint64(math.Ceil(10 / (1 - q)))
	per := make([]float64, 0, len(p.lat[k]))
	for _, h := range p.lat[k] {
		if h.total < need {
			return p.all[k].quantile(q)
		}
		per = append(per, h.quantile(q))
	}
	return median(per)
}

// opsPerSec returns the median over slices of completed ops per second.
func (p *phase) opsPerSec() float64 {
	per := make([]float64, len(p.ops))
	for i, n := range p.ops {
		per[i] = float64(n) / p.slice.Seconds()
	}
	return median(per)
}

// closedLoop runs op from workers goroutines for dur: each sends its
// next op as soon as the previous one returned.
func closedLoop(ctx context.Context, workers int, dur time.Duration, slices int, seed int64, op opFunc) *phase {
	start := time.Now()
	deadline := start.Add(dur)
	recs := make([]*recorder, workers)
	var wg sync.WaitGroup
	for w := range recs {
		recs[w] = newRecorder(start, dur, slices)
		wg.Add(1)
		go func(w int, rec *recorder) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed*7919 + int64(w)))
			for ctx.Err() == nil {
				t0 := time.Now()
				if !t0.Before(deadline) {
					return
				}
				k, end, err := op(w, rng)
				rec.record(k, end, end.Sub(t0), err)
			}
		}(w, recs[w])
	}
	wg.Wait()
	return mergeRecorders(recs, time.Since(start))
}

// maxOverrun bounds how long an open-loop phase keeps draining a backlog
// after its last request fell due; requests still unsent then are
// dropped.
const maxOverrun = 100 * time.Millisecond

// openLoop sends requests on a fixed schedule of rate per second for
// dur, from at most workers requests in flight. A request's latency runs
// from the time it fell due, not from when a worker got to send it, so a
// stall is charged to every request scheduled behind it; its lateness
// (send minus due) is recorded separately.
func openLoop(ctx context.Context, workers int, rate float64, dur time.Duration, slices int, seed int64, op opFunc) *phase {
	start := time.Now()
	end := start.Add(dur)
	total := int64(rate * dur.Seconds())
	nsPer := 1e9 / rate
	var next atomic.Int64
	var dropped atomic.Int64
	recs := make([]*recorder, workers)
	var wg sync.WaitGroup
	for w := range recs {
		recs[w] = newRecorder(start, dur, slices)
		wg.Add(1)
		go func(w int, rec *recorder) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed*7919 + int64(w)))
			for ctx.Err() == nil {
				i := next.Add(1) - 1
				if i >= total {
					return
				}
				due := start.Add(time.Duration(float64(i) * nsPer))
				now := time.Now()
				if now.Before(due) {
					sleepUntil(due)
				} else if now.Sub(end) > maxOverrun {
					dropped.Add(1)
					continue
				}
				sent := time.Now()
				k, done, err := op(w, rng)
				rec.record(k, due, done.Sub(due), err)
				rec.late.observe(sent.Sub(due))
			}
		}(w, recs[w])
	}
	wg.Wait()
	p := mergeRecorders(recs, time.Since(start))
	if d := dropped.Load(); d > 0 {
		p.dropped = uint64(d)
	}
	return p
}
