package health

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// fakeProbe serves canned samples per window, so tests can steer the
// fast and slow windows independently and walk the state machine edge by
// edge.
type fakeProbe struct {
	fast, slow Sample
}

func (p *fakeProbe) probe(window time.Duration) Sample {
	if window <= DefaultFastWindow {
		return p.fast
	}
	return p.slow
}

// readSample returns a sample whose read_p99 is roughly ns nanoseconds.
func readSample(ns time.Duration) Sample {
	var h obs.Histogram
	for i := 0; i < 100; i++ {
		h.Observe(ns)
	}
	return Sample{Ops: map[string]obs.HistogramSnapshot{"read": h.Read()}, Total: 100}
}

func newTestEngine(t *testing.T, p *fakeProbe, onBreach func(Status)) *Engine {
	t.Helper()
	objs, err := ParseObjectives("read_p99<1us")
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(Config{Objectives: objs, Probe: p.probe, OnBreach: onBreach})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestNewEngineValidation(t *testing.T) {
	objs, _ := ParseObjectives("read_p99<1ms")
	probe := func(time.Duration) Sample { return Sample{} }
	if _, err := NewEngine(Config{Probe: probe}); err == nil {
		t.Error("engine without objectives accepted")
	}
	if _, err := NewEngine(Config{Objectives: objs}); err == nil {
		t.Error("engine without probe accepted")
	}
	if _, err := NewEngine(Config{Objectives: objs, Probe: probe,
		FastWindow: time.Minute, SlowWindow: time.Second}); err == nil {
		t.Error("fast >= slow accepted")
	}
	e, err := NewEngine(Config{Objectives: objs, Probe: probe})
	if err != nil {
		t.Fatal(err)
	}
	if f, s := e.Windows(); f != DefaultFastWindow || s != DefaultSlowWindow {
		t.Errorf("default windows = %v/%v", f, s)
	}
	if e.State() != Healthy {
		t.Errorf("initial state = %s, want healthy", e.State())
	}
}

// TestEngineStateMachine walks healthy → warning (fast only) →
// breaching (both) → warning (slow still burning) → healthy, checking
// the multi-window logic at each edge.
func TestEngineStateMachine(t *testing.T) {
	slow := readSample(10 * time.Microsecond) // burns 10x against 1µs
	ok := readSample(100 * time.Nanosecond)   // burns 0.1x
	p := &fakeProbe{fast: ok, slow: ok}
	var breaches []Status
	e := newTestEngine(t, p, func(st Status) { breaches = append(breaches, st) })

	now := time.Unix(1000, 0)
	step := func(fast, slow Sample, want State) Status {
		t.Helper()
		p.fast, p.slow = fast, slow
		now = now.Add(time.Second)
		st := e.Evaluate(now)
		if st.State != want {
			t.Fatalf("state = %s, want %s (objectives %+v)", st.State, want, st.Objectives)
		}
		return st
	}

	step(ok, ok, Healthy)
	// Fast window burning alone: an emerging problem → warning.
	step(slow, ok, Warning)
	// Both windows: breaching, exactly one OnBreach fire.
	st := step(slow, slow, Breaching)
	if st.Breaches != 1 || len(breaches) != 1 {
		t.Fatalf("breaches = %d, hook fired %d times; want 1/1", st.Breaches, len(breaches))
	}
	if names := breaches[0].BreachingObjectives(); len(names) != 1 || names[0] != "read_p99" {
		t.Errorf("breach hook saw %v, want [read_p99]", names)
	}
	// Still breaching: the hook must NOT fire again.
	step(slow, slow, Breaching)
	if len(breaches) != 1 {
		t.Fatalf("hook fired on a non-transition: %d times", len(breaches))
	}
	// Fast window recovered, slow still burning: warning (recovering).
	step(ok, slow, Warning)
	// Fully recovered.
	st = step(ok, ok, Healthy)
	if st.Evaluations != 6 {
		t.Errorf("evaluations = %d, want 6", st.Evaluations)
	}
	// A second full breach transition fires the hook again.
	step(slow, slow, Breaching)
	if len(breaches) != 2 || e.Status().Breaches != 2 {
		t.Errorf("second breach: hook %d fires, counter %d; want 2/2", len(breaches), e.Status().Breaches)
	}
}

func TestEngineStatusTimestampsAndCopy(t *testing.T) {
	p := &fakeProbe{fast: readSample(100 * time.Nanosecond), slow: readSample(100 * time.Nanosecond)}
	e := newTestEngine(t, p, nil)
	t1 := time.Unix(100, 0)
	e.Evaluate(t1)
	st := e.Status()
	if !st.LastEvaluated.Equal(t1) {
		t.Errorf("LastEvaluated = %v, want %v", st.LastEvaluated, t1)
	}
	// Mutating the returned objectives must not alias the engine's state.
	st.Objectives[0].Name = "clobbered"
	if e.Status().Objectives[0].Name != "read_p99" {
		t.Error("Status aliases the engine's objective slice")
	}
	// A state change stamps ChangedAt with the evaluation time.
	p.fast = readSample(10 * time.Microsecond)
	p.slow = readSample(10 * time.Microsecond)
	t2 := time.Unix(200, 0)
	e.Evaluate(t2)
	if got := e.Status().ChangedAt; !got.Equal(t2) {
		t.Errorf("ChangedAt = %v, want %v", got, t2)
	}
}

func TestEngineRunTicks(t *testing.T) {
	p := &fakeProbe{fast: readSample(time.Nanosecond), slow: readSample(time.Nanosecond)}
	e := newTestEngine(t, p, nil)
	rotations := 0
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		e.Run(ctx, time.Millisecond, func() { rotations++ })
	}()
	deadline := time.After(5 * time.Second)
	for e.Status().Evaluations < 3 {
		select {
		case <-deadline:
			t.Fatal("Run never evaluated 3 times")
		case <-time.After(time.Millisecond):
		}
	}
	cancel()
	<-done
	if rotations == 0 {
		t.Error("beforeEvaluate hook never ran")
	}
}

func TestEngineWriteProm(t *testing.T) {
	burn := readSample(10 * time.Microsecond)
	p := &fakeProbe{fast: burn, slow: burn}
	e := newTestEngine(t, p, nil)
	e.Evaluate(time.Unix(0, 0))
	var b strings.Builder
	if err := obs.WriteProm(&b, "t", e.Metrics()); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`# TYPE t_health_slo_state gauge`,
		`t_health_slo_state{objective="read_p99"} 2`,
		`t_health_slo_fast_value{objective="read_p99"}`,
		`t_health_slo_slow_burn{objective="read_p99"}`,
		`t_health_slo_threshold{objective="read_p99"} 1000`,
		"t_health_state 2",
		"t_health_breaches_total 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("WriteProm missing %q in:\n%s", want, out)
		}
	}
}

func TestStateTextMarshalling(t *testing.T) {
	for _, s := range []State{Healthy, Warning, Breaching} {
		b, err := s.MarshalText()
		if err != nil {
			t.Fatal(err)
		}
		var back State
		if err := back.UnmarshalText(b); err != nil || back != s {
			t.Errorf("round trip of %s = %s, %v", s, back, err)
		}
	}
	var s State
	if err := s.UnmarshalText([]byte("on-fire")); err == nil {
		t.Error("bogus state name accepted")
	}
	if State(42).String() != "unknown" {
		t.Errorf("State(42) = %q", State(42).String())
	}
}
