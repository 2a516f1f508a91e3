// Package driver runs declarative mixed workloads against any index
// backend — the YCSB/dbperf-style harness the single-op-type
// microbenchmarks could not provide. Three pieces compose:
//
//   - Spec declares the workload: the Read/Write/Scan/Batch mix, the key
//     distribution (uniform, zipfian, sequential — see
//     internal/workload's choosers), key-space size, client goroutine
//     count, duration or op budget, and warmup. Specs parse from and
//     print to a compact flag-friendly string form.
//   - Target abstracts the backend: the in-process index.Index (with its
//     versioned/sharded/locked compositions) and segserve over HTTP via
//     internal/segclient are interchangeable.
//   - Run drives per-client goroutines drawing ops from the mix,
//     recording each op's latency into internal/obs log2 histograms, and
//     reports throughput with p50/p99/p999 per op type — exportable as
//     Class:"workload" BENCH measurements that cmd/benchdiff gates.
package driver

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"
)

// Dist selects the key distribution of a Spec.
type Dist int

const (
	// Uniform draws every key with equal probability.
	Uniform Dist = iota
	// Zipfian draws keys by the zipfian frequency-rank law with skew
	// Theta — YCSB's hotspot-heavy default shape.
	Zipfian
	// Sequential walks the key space round-robin, covering every key
	// exactly once per wrap.
	Sequential
)

// String returns the spec-form name of the distribution.
func (d Dist) String() string {
	switch d {
	case Uniform:
		return "uniform"
	case Zipfian:
		return "zipfian"
	case Sequential:
		return "seq"
	default:
		return "unknown"
	}
}

// Spec declares one mixed workload. The zero value is not runnable;
// start from DefaultSpec or ParseSpec and adjust.
type Spec struct {
	// Read, Write, Scan and Batch are the op-mix weights. Each op is
	// drawn with probability weight/(sum of weights); the weights need
	// not add to 100. Read is a point Get, Write a Put, Scan an ordered
	// range read of ScanLen items, Batch a GetBatch of BatchSize keys.
	Read, Write, Scan, Batch int
	// Dist is the key distribution; Theta is the zipfian skew (used only
	// when Dist == Zipfian, 0 < Theta < 1).
	Dist  Dist
	Theta float64
	// Keys is the key-space size: ops draw key indexes in [0, Keys).
	Keys int
	// Clients is the number of concurrent client goroutines.
	Clients int
	// Ops is the total operation budget across all clients; when 0 the
	// run is time-bounded by Duration instead. Exactly one of the two
	// must be positive.
	Ops int
	// Duration bounds a time-based run.
	Duration time.Duration
	// Warmup runs the mix for this long before measurement starts;
	// warmed-up operations are not recorded.
	Warmup time.Duration
	// BatchSize is the keys per Batch op; ScanLen the items per Scan op.
	BatchSize int
	ScanLen   int
	// Seed makes key streams reproducible; client c derives its rng from
	// Seed and c.
	Seed int64
}

// DefaultSpec is the starting point ParseSpec overrides: YCSB-ish
// read-heavy defaults, op-bounded so runs are deterministic in size.
func DefaultSpec() Spec {
	return Spec{
		Read: 95, Write: 5,
		Dist: Uniform, Theta: 0.99,
		Keys:      100_000,
		Clients:   8,
		Ops:       100_000,
		BatchSize: 16,
		ScanLen:   100,
		Seed:      1,
	}
}

// Validate reports the first problem that would make the Spec unrunnable.
func (s Spec) Validate() error {
	switch {
	case s.Read < 0 || s.Write < 0 || s.Scan < 0 || s.Batch < 0:
		return errors.New("driver: op-mix weights must be non-negative")
	case s.Read+s.Write+s.Scan+s.Batch == 0:
		return errors.New("driver: op mix is empty (all weights zero)")
	case s.Dist < Uniform || s.Dist > Sequential:
		return fmt.Errorf("driver: unknown distribution %d", int(s.Dist))
	case s.Dist == Zipfian && (s.Theta <= 0 || s.Theta >= 1):
		return fmt.Errorf("driver: zipfian theta %g out of (0, 1)", s.Theta)
	case s.Keys < 1:
		return fmt.Errorf("driver: key space %d must be at least 1", s.Keys)
	case s.Clients < 1:
		return fmt.Errorf("driver: clients %d must be at least 1", s.Clients)
	case s.Ops < 0 || s.Duration < 0 || s.Warmup < 0:
		return errors.New("driver: ops, duration and warmup must be non-negative")
	case s.Ops == 0 && s.Duration == 0:
		return errors.New("driver: one of ops or duration must be set")
	case s.Ops > 0 && s.Duration > 0:
		return errors.New("driver: ops and duration are mutually exclusive")
	case s.Batch > 0 && s.BatchSize < 1:
		return fmt.Errorf("driver: batch ops need batchsize >= 1, got %d", s.BatchSize)
	case s.Scan > 0 && s.ScanLen < 1:
		return fmt.Errorf("driver: scan ops need scanlen >= 1, got %d", s.ScanLen)
	}
	return nil
}

// String renders the spec in its parseable form,
//
//	read=95,write=5,scan=0,batch=0;dist=zipfian:0.99;keys=100000;clients=8;ops=100000;batchsize=16;scanlen=100;seed=1
//
// ParseSpec(s.String()) reproduces s (the canonical round trip); fields
// at their zero value that ParseSpec defaults (warmup, the unused one of
// ops/dur) are omitted.
func (s Spec) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "read=%d,write=%d,scan=%d,batch=%d", s.Read, s.Write, s.Scan, s.Batch)
	if s.Dist == Zipfian {
		fmt.Fprintf(&b, ";dist=zipfian:%g", s.Theta)
	} else {
		fmt.Fprintf(&b, ";dist=%s", s.Dist)
	}
	fmt.Fprintf(&b, ";keys=%d;clients=%d", s.Keys, s.Clients)
	if s.Duration > 0 {
		fmt.Fprintf(&b, ";dur=%s", s.Duration)
	} else {
		fmt.Fprintf(&b, ";ops=%d", s.Ops)
	}
	if s.Warmup > 0 {
		fmt.Fprintf(&b, ";warmup=%s", s.Warmup)
	}
	fmt.Fprintf(&b, ";batchsize=%d;scanlen=%d;seed=%d", s.BatchSize, s.ScanLen, s.Seed)
	return b.String()
}

// ParseSpec parses the string form of a Spec. Fields start at
// DefaultSpec and are overridden by "key=value" tokens separated by ';'
// or ','; the two separators are interchangeable, so the mix section
// reads naturally:
//
//	read=95,write=5;dist=zipfian:0.99;clients=64
//
// Naming any op weight replaces the default mix, so the weights a spec
// does not name are 0: "write=100" is a write-only run. Setting dur
// clears the default op budget (and vice versa), so a time-bounded spec
// needs no explicit ops=0. The result is validated.
func ParseSpec(text string) (Spec, error) {
	s := DefaultSpec()
	sawMix, sawOps, sawDur := false, false, false
	for _, tok := range strings.FieldsFunc(text, func(r rune) bool { return r == ';' || r == ',' }) {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		name, val, ok := strings.Cut(tok, "=")
		if !ok {
			return Spec{}, fmt.Errorf("driver: malformed spec token %q (want key=value)", tok)
		}
		if !sawMix && (name == "read" || name == "write" || name == "scan" || name == "batch") {
			s.Read, s.Write, s.Scan, s.Batch = 0, 0, 0, 0
			sawMix = true
		}
		var err error
		switch name {
		case "read":
			s.Read, err = strconv.Atoi(val)
		case "write":
			s.Write, err = strconv.Atoi(val)
		case "scan":
			s.Scan, err = strconv.Atoi(val)
		case "batch":
			s.Batch, err = strconv.Atoi(val)
		case "dist":
			err = s.parseDist(val)
		case "keys":
			s.Keys, err = strconv.Atoi(val)
		case "clients":
			s.Clients, err = strconv.Atoi(val)
		case "ops":
			s.Ops, err = strconv.Atoi(val)
			sawOps = true
		case "dur":
			s.Duration, err = time.ParseDuration(val)
			sawDur = true
		case "warmup":
			s.Warmup, err = time.ParseDuration(val)
		case "batchsize":
			s.BatchSize, err = strconv.Atoi(val)
		case "scanlen":
			s.ScanLen, err = strconv.Atoi(val)
		case "seed":
			s.Seed, err = strconv.ParseInt(val, 10, 64)
		default:
			return Spec{}, fmt.Errorf("driver: unknown spec field %q", name)
		}
		if err != nil {
			return Spec{}, fmt.Errorf("driver: bad spec value %q: %w", tok, err)
		}
	}
	// A duration-bounded spec displaces the default op budget and vice
	// versa; naming both explicitly is still rejected by Validate.
	if sawDur && !sawOps {
		s.Ops = 0
	}
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// parseDist parses "uniform", "seq"/"sequential" or "zipfian[:theta]".
func (s *Spec) parseDist(val string) error {
	name, theta, hasTheta := strings.Cut(val, ":")
	switch name {
	case "uniform":
		s.Dist = Uniform
	case "zipfian":
		s.Dist = Zipfian
	case "seq", "sequential":
		s.Dist = Sequential
	default:
		return fmt.Errorf("unknown distribution %q (want uniform, zipfian[:theta] or seq)", name)
	}
	if hasTheta {
		if name != "zipfian" {
			return fmt.Errorf("distribution %q takes no parameter", name)
		}
		f, err := strconv.ParseFloat(theta, 64)
		if err != nil {
			return err
		}
		s.Theta = f
	}
	return nil
}
