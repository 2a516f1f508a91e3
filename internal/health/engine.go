package health

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/obs"
)

// State is the health of one objective, or of the whole engine (the
// worst objective state).
type State int

const (
	Healthy State = iota
	Warning
	Breaching
)

// String returns the lower-case state name.
func (s State) String() string {
	switch s {
	case Healthy:
		return "healthy"
	case Warning:
		return "warning"
	case Breaching:
		return "breaching"
	default:
		return "unknown"
	}
}

// MarshalText renders the state name into JSON and text encodings.
func (s State) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// UnmarshalText parses a state name.
func (s *State) UnmarshalText(b []byte) error {
	switch string(b) {
	case "healthy":
		*s = Healthy
	case "warning":
		*s = Warning
	case "breaching":
		*s = Breaching
	default:
		return fmt.Errorf("health: unknown state %q", b)
	}
	return nil
}

// Probe returns a Sample spanning the given trailing window. The engine
// calls it twice per evaluation — once per window — so it must be cheap:
// windowed-histogram merges, not tree walks.
type Probe func(window time.Duration) Sample

// Config assembles an Engine.
type Config struct {
	// Objectives are the ceilings to watch; at least one is required.
	Objectives []Objective
	// FastWindow and SlowWindow are the two burn-rate windows — the
	// SRE-style pairing of a short "is it happening right now" window
	// with a long "is it significant" window. Defaults: 30 s and 5 m.
	FastWindow, SlowWindow time.Duration
	// Probe supplies the windowed measurements; required.
	Probe Probe
	// OnBreach, when set, fires on each transition into Breaching — the
	// flight recorder's capture hook. It runs synchronously inside
	// Evaluate with the transition's status.
	OnBreach func(Status)
}

// DefaultFastWindow and DefaultSlowWindow are the burn-rate windows used
// when Config leaves them zero.
const (
	DefaultFastWindow = 30 * time.Second
	DefaultSlowWindow = 5 * time.Minute
)

// ObjectiveStatus is one objective's last evaluation.
type ObjectiveStatus struct {
	// Name is the objective's measurement name ("read_p99").
	Name string `json:"name"`
	// Objective is the canonical objective string ("read_p99<2ms").
	Objective string `json:"objective"`
	State     State  `json:"state"`
	// FastValue/SlowValue are the measured quantities per window
	// (nanoseconds or ratio); FastBurn/SlowBurn divide them by the
	// ceiling, so > 1 is violating. Windows with no data read 0.
	FastValue float64 `json:"fast_value"`
	SlowValue float64 `json:"slow_value"`
	FastBurn  float64 `json:"fast_burn"`
	SlowBurn  float64 `json:"slow_burn"`
}

// Status is the engine's state after an evaluation.
type Status struct {
	// State is the worst objective state.
	State State `json:"state"`
	// Evaluations counts Evaluate calls; Breaches counts transitions of
	// the overall state into Breaching.
	Evaluations uint64 `json:"evaluations"`
	Breaches    uint64 `json:"breaches"`
	// LastEvaluated is the time passed to the latest Evaluate; ChangedAt
	// the evaluation time of the last overall-state change.
	LastEvaluated time.Time `json:"last_evaluated"`
	ChangedAt     time.Time `json:"changed_at"`
	// FastWindow and SlowWindow echo the configured windows (ns).
	FastWindow time.Duration `json:"fast_window_ns"`
	SlowWindow time.Duration `json:"slow_window_ns"`
	// Objectives holds one entry per configured objective, in order.
	Objectives []ObjectiveStatus `json:"objectives"`
}

// BreachingObjectives lists the names of currently breaching objectives.
func (s Status) BreachingObjectives() []string {
	var out []string
	for _, o := range s.Objectives {
		if o.State == Breaching {
			out = append(out, o.Name)
		}
	}
	return out
}

// Engine evaluates objectives on a tick against two trailing windows and
// runs the healthy → warning → breaching state machine:
//
//   - breaching: the objective violates in both windows — the regression
//     is significant (slow window) and still happening (fast window).
//   - warning: exactly one window violates — either an emerging problem
//     the slow window has not absorbed yet, or a recovering one the fast
//     window has already left behind.
//   - healthy: neither window violates.
//
// All methods are safe for concurrent use; Evaluate is typically driven
// by one ticker goroutine while HTTP handlers read Status.
type Engine struct {
	objectives []Objective
	fast, slow time.Duration
	probe      Probe
	onBreach   func(Status)

	mu     sync.Mutex
	status Status
}

// NewEngine validates cfg and returns an engine in the Healthy state.
func NewEngine(cfg Config) (*Engine, error) {
	if len(cfg.Objectives) == 0 {
		return nil, fmt.Errorf("health: no objectives")
	}
	if cfg.Probe == nil {
		return nil, fmt.Errorf("health: no probe")
	}
	fast, slow := cfg.FastWindow, cfg.SlowWindow
	if fast <= 0 {
		fast = DefaultFastWindow
	}
	if slow <= 0 {
		slow = DefaultSlowWindow
	}
	if fast >= slow {
		return nil, fmt.Errorf("health: fast window %v must be shorter than slow window %v", fast, slow)
	}
	e := &Engine{
		objectives: cfg.Objectives,
		fast:       fast, slow: slow,
		probe:    cfg.Probe,
		onBreach: cfg.OnBreach,
	}
	e.status = Status{FastWindow: fast, SlowWindow: slow,
		Objectives: make([]ObjectiveStatus, len(cfg.Objectives))}
	for i, o := range cfg.Objectives {
		e.status.Objectives[i] = ObjectiveStatus{Name: o.Name(), Objective: o.String()}
	}
	return e, nil
}

// Objectives returns the configured objectives.
func (e *Engine) Objectives() []Objective { return e.objectives }

// Windows returns the fast and slow burn-rate windows.
func (e *Engine) Windows() (fast, slow time.Duration) { return e.fast, e.slow }

// Evaluate probes both windows, recomputes every objective's state and
// the overall state, and fires the OnBreach hook if the overall state
// just transitioned into Breaching. It returns the new status.
func (e *Engine) Evaluate(now time.Time) Status {
	fastSample := e.probe(e.fast)
	slowSample := e.probe(e.slow)

	e.mu.Lock()
	prev := e.status.State
	worst := Healthy
	for i, o := range e.objectives {
		os := &e.status.Objectives[i]
		os.FastValue, _ = o.Value(fastSample)
		os.SlowValue, _ = o.Value(slowSample)
		os.FastBurn = o.Burn(fastSample)
		os.SlowBurn = o.Burn(slowSample)
		fastViol, slowViol := os.FastBurn >= 1, os.SlowBurn >= 1
		switch {
		case fastViol && slowViol:
			os.State = Breaching
		case fastViol || slowViol:
			os.State = Warning
		default:
			os.State = Healthy
		}
		if os.State > worst {
			worst = os.State
		}
	}
	e.status.State = worst
	e.status.Evaluations++
	e.status.LastEvaluated = now
	if worst != prev {
		e.status.ChangedAt = now
	}
	breached := worst == Breaching && prev != Breaching
	if breached {
		e.status.Breaches++
	}
	st := e.statusLocked()
	e.mu.Unlock()

	if breached && e.onBreach != nil {
		e.onBreach(st)
	}
	return st
}

// Status returns the last evaluation's result (the zero-valued initial
// status before the first Evaluate).
func (e *Engine) Status() Status {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.statusLocked()
}

// statusLocked deep-copies the status so callers never alias the
// engine's mutable objective slice.
func (e *Engine) statusLocked() Status {
	st := e.status
	st.Objectives = append([]ObjectiveStatus(nil), e.status.Objectives...)
	return st
}

// State returns the current overall state.
func (e *Engine) State() State {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.status.State
}

// Run evaluates every tick until ctx is done. beforeEvaluate, when
// non-nil, runs first on each tick — the owner's window-rotation hook,
// so epochs advance on the same cadence the engine reads them.
func (e *Engine) Run(ctx context.Context, tick time.Duration, beforeEvaluate func()) {
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case now := <-t.C:
			if beforeEvaluate != nil {
				beforeEvaluate()
			}
			e.Evaluate(now)
		}
	}
}

// Metrics returns the engine state as table rows named health_*:
// per-objective gauges labelled objective= — state (0 healthy, 1
// warning, 2 breaching), measured values and burn rates per window, the
// ceiling — plus the overall state and the breach-transition counter.
func (e *Engine) Metrics() []obs.Metric {
	st := e.Status()
	series := []struct {
		name, help string
		value      func(ObjectiveStatus, Objective) float64
	}{
		{"health_slo_state", "objective state: 0 healthy, 1 warning, 2 breaching",
			func(s ObjectiveStatus, _ Objective) float64 { return float64(s.State) }},
		{"health_slo_fast_value", "measured value over the fast window (ns or ratio)",
			func(s ObjectiveStatus, _ Objective) float64 { return s.FastValue }},
		{"health_slo_slow_value", "measured value over the slow window (ns or ratio)",
			func(s ObjectiveStatus, _ Objective) float64 { return s.SlowValue }},
		{"health_slo_fast_burn", "fast-window burn rate (measured / ceiling)",
			func(s ObjectiveStatus, _ Objective) float64 { return s.FastBurn }},
		{"health_slo_slow_burn", "slow-window burn rate (measured / ceiling)",
			func(s ObjectiveStatus, _ Objective) float64 { return s.SlowBurn }},
		{"health_slo_threshold", "objective ceiling (ns or ratio)",
			func(_ ObjectiveStatus, o Objective) float64 { return o.Threshold }},
	}
	var rows []obs.Metric
	for _, sr := range series {
		for i, o := range st.Objectives {
			rows = append(rows, obs.Metric{Name: sr.name, Help: sr.help, Kind: obs.KindGauge,
				Label: "objective", LabelValue: o.Name, Value: sr.value(o, e.objectives[i])})
		}
	}
	return append(rows,
		obs.Metric{Name: "health_state", Help: "overall state: the worst objective state",
			Kind: obs.KindGauge, Value: float64(st.State)},
		obs.Metric{Name: "health_breaches_total", Help: "transitions of the overall state into breaching",
			Kind: obs.KindCounter, Value: float64(st.Breaches)})
}
