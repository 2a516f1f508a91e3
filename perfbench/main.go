// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload against the public API — the simdtree.NewIndex composition
// through internal/driver targets, or a segserve child process through
// internal/segclient — checks every answer, and prints its metrics as
// one JSON object on the last line of standard output.
//
//	perfbench -workload lookup|update|served -seed N -seconds S -trace 0|1 \
//	    -segserve path/to/segserve -workdir dir
//
// With -trace 0 it reports the end-to-end metrics; with -trace 1 it
// repeats the workload with per-op spans and then prices a Get at every
// layer of the stack (see README.md). run.sh builds both binaries from
// the checkout and passes the last two flags.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"sort"
	"syscall"
)

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	segserve string
	workdir  string
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: lookup, update or served")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the generated keys and op streams")
	flag.IntVar(&cfg.seconds, "seconds", 10, "measured seconds of the run")
	flag.IntVar(&trace, "trace", 0, "1 reports the per-layer metrics instead of the end-to-end ones")
	flag.StringVar(&cfg.segserve, "segserve", "", "segserve binary (required by served and by -trace 1)")
	flag.StringVar(&cfg.workdir, "workdir", ".bench_build", "directory for server logs and span dumps")
	flag.Parse()
	cfg.trace = trace == 1
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(cfg config) error {
	w, ok := workloads[cfg.workload]
	switch {
	case !ok:
		return fmt.Errorf("unknown -workload %q (want lookup, update or served)", cfg.workload)
	case cfg.seconds < 1:
		return fmt.Errorf("-seconds %d must be at least 1", cfg.seconds)
	case cfg.segserve == "" && (cfg.trace || cfg.workload == "served"):
		return fmt.Errorf("-segserve is required for this run")
	}
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	rep := newReport()
	if err := w(ctx, cfg, rep); err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	return rep.emit()
}

var workloads = map[string]func(context.Context, config, *report) error{
	"lookup": runLookup,
	"update": runUpdate,
	"served": runServed,
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report gathers a run's outcome. Metrics named in BENCHMARK.json go to
// the final JSON line; notes are the workload's further figures, printed
// only as text lines.
type report struct {
	metrics   map[string]metric
	notes     map[string]metric
	attempted uint64
	failed    uint64
	problems  []string
}

func newReport() *report {
	return &report{metrics: map[string]metric{}, notes: map[string]metric{}}
}

func (r *report) set(name string, v float64, unit string)  { r.metrics[name] = metric{v, unit} }
func (r *report) note(name string, v float64, unit string) { r.notes[name] = metric{v, unit} }

// problem marks the run incorrect.
func (r *report) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// add counts a phase's ops and failures into the run's totals.
func (r *report) add(p *phase) {
	r.attempted += p.attempted()
	r.failed += p.failed + p.dropped
	if p.firstErr != nil {
		r.problem("first failed op: %v", p.firstErr)
	}
	if p.dropped > 0 {
		r.problem("%d requests never sent: the open loop fell behind", p.dropped)
	}
}

func (r *report) emit() error {
	names := make([]string, 0, len(r.metrics)+len(r.notes))
	for n := range r.metrics {
		names = append(names, n)
	}
	for n := range r.notes {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m, ok := r.metrics[n]
		if !ok {
			m = r.notes[n]
		}
		fmt.Printf("%-36s %14.6g %s\n", n, m.Value, m.Unit)
	}
	failFrac := 0.0
	if r.attempted > 0 {
		failFrac = float64(r.failed) / float64(r.attempted)
	}
	fmt.Printf("%-36s %14.6g %s\n", "fail_frac", failFrac, "frac")
	for _, p := range r.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	for n, m := range r.metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s has no value (%v)", n, m.Value)
		}
	}
	if r.attempted == 0 {
		return fmt.Errorf("no ops attempted")
	}
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted uint64            `json:"attempted"`
		Failed    uint64            `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(r.problems) == 0 && r.failed == 0, r.attempted, r.failed, r.metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}
