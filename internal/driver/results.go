package driver

import (
	"fmt"
	"strings"
	"text/tabwriter"
	"time"

	"repro/internal/bench"
	"repro/internal/obs"
)

// OpResult is the measured outcome of one op type in a run.
type OpResult struct {
	// Op is the mix name: "read", "write", "scan" or "batch".
	Op string `json:"op"`
	// Count is successful recorded operations; Errors failed ones.
	Count  uint64 `json:"count"`
	Errors uint64 `json:"errors"`
	// MeanNanos and the quantiles are in nanoseconds, from the log2
	// latency histogram (obs.HistogramSnapshot.QuantileNanos interpolation).
	MeanNanos float64 `json:"mean_ns"`
	P50       float64 `json:"p50_ns"`
	P99       float64 `json:"p99_ns"`
	P999      float64 `json:"p999_ns"`
	// Histogram is the full latency distribution for callers that want
	// more than the three headline quantiles.
	Histogram obs.HistogramSnapshot `json:"histogram"`
}

// Results is the report of one Run.
type Results struct {
	Spec    Spec          `json:"spec"`
	Elapsed time.Duration `json:"elapsed"`
	// Total and Errors aggregate across op types; Throughput is
	// successful ops per second over the measured phase.
	Total      uint64  `json:"total"`
	Errors     uint64  `json:"errors"`
	Throughput float64 `json:"throughput"`
	// Ops holds one entry per op type with nonzero mix weight, in mix
	// order (read, write, scan, batch).
	Ops []OpResult `json:"ops"`
}

// collect assembles Results from a finished recorder.
func collect(spec Spec, rec *recorder, elapsed time.Duration) Results {
	res := Results{Spec: spec, Elapsed: elapsed}
	weights := [numOps]int{spec.Read, spec.Write, spec.Scan, spec.Batch}
	for kind := opRead; kind < numOps; kind++ {
		if weights[kind] == 0 {
			continue
		}
		snap := rec.hists[kind].Read()
		op := OpResult{
			Op:        opNames[kind&0x3],
			Count:     rec.counts[kind].Load(),
			Errors:    rec.errs[kind].Load(),
			MeanNanos: float64(snap.Mean().Nanoseconds()),
			P50:       snap.QuantileNanos(0.50),
			P99:       snap.QuantileNanos(0.99),
			P999:      snap.QuantileNanos(0.999),
			Histogram: snap,
		}
		res.Total += op.Count
		res.Errors += op.Errors
		res.Ops = append(res.Ops, op)
	}
	if s := elapsed.Seconds(); s > 0 {
		res.Throughput = float64(res.Total) / s
	}
	return res
}

// Measurements renders the results as BENCH JSON rows under
// Class:"workload", keyed so cmd/benchdiff pairs them across runs with
// no changes to its matching logic: per-op p50/p99/p999 carry the gated
// ns/op unit, op counts and throughput are ungated context.
func (r Results) Measurements(experiment, structure string) []bench.Measurement {
	var ms []bench.Measurement
	add := func(metric string, value float64, unit string) {
		ms = append(ms, bench.Measurement{
			Experiment: experiment, Structure: structure, Class: "workload",
			Metric: metric, Value: value, Unit: unit,
		})
	}
	for _, op := range r.Ops {
		if op.Count == 0 {
			continue
		}
		add(op.Op+"-p50", op.P50, "ns/op")
		add(op.Op+"-p99", op.P99, "ns/op")
		add(op.Op+"-p999", op.P999, "ns/op")
		add(op.Op+"-ops", float64(op.Count), "ops")
	}
	add("throughput", r.Throughput, "ops/s")
	return ms
}

// String renders the results as the table cmd/segload prints.
func (r Results) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "spec: %s\n", r.Spec)
	fmt.Fprintf(&b, "elapsed %v, %d ops (%d errors), %.0f ops/s\n",
		r.Elapsed.Round(time.Millisecond), r.Total, r.Errors, r.Throughput)
	tw := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "op\tcount\terrors\tmean\tp50\tp99\tp999\t")
	for _, op := range r.Ops {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%s\t%s\t%s\t%s\t\n",
			op.Op, op.Count, op.Errors,
			fmtNanos(op.MeanNanos), fmtNanos(op.P50), fmtNanos(op.P99), fmtNanos(op.P999))
	}
	tw.Flush()
	return b.String()
}

// fmtNanos renders a nanosecond figure as a rounded duration.
func fmtNanos(ns float64) string {
	d := time.Duration(ns)
	switch {
	case d >= time.Millisecond:
		return d.Round(10 * time.Microsecond).String()
	case d >= time.Microsecond:
		return d.Round(10 * time.Nanosecond).String()
	default:
		return d.String()
	}
}
