package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"time"

	"repro/internal/obs"
	"repro/internal/shape"
)

// spanCap bounds the spans kept per worker; later ones are dropped.
const spanCap = 50_000

type span struct {
	Worker  int    `json:"worker"`
	Op      string `json:"op"`
	StartNS int64  `json:"start_ns"`
	DurNS   int64  `json:"dur_ns"`
}

// spanLog keeps, per worker, one span for each call the benchmark makes
// into the store, timed from the benchmark's own code. Spans stay in
// memory until write.
type spanLog struct {
	origin time.Time
	spans  [][]span
}

func newSpanLog(workers int) *spanLog {
	l := &spanLog{origin: time.Now(), spans: make([][]span, workers)}
	for w := range l.spans {
		l.spans[w] = make([]span, 0, spanCap)
	}
	return l
}

func (l *spanLog) add(w int, k kind, start, end time.Time) {
	if len(l.spans[w]) < spanCap {
		l.spans[w] = append(l.spans[w], span{w, kindNames[k], start.Sub(l.origin).Nanoseconds(), end.Sub(start).Nanoseconds()})
	}
}

// write dumps the kept spans as JSON lines into the work directory.
func (l *spanLog) write(cfg config, name string) error {
	path := filepath.Join(cfg.workdir, fmt.Sprintf("%s-%s-%d.jsonl", name, cfg.workload, cfg.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, ws := range l.spans {
		for _, s := range ws {
			if err := enc.Encode(s); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerMVCC reports the publication health between two MVCC snapshots:
// full-tree clones per thousand writes, and the publish latency p99 of
// the window (of the whole lifetime when the window published nothing).
func layerMVCC(rep *report, before, after obs.MVCCSnapshot, writes uint64) {
	perK := 0.0
	if writes > 0 {
		perK = float64(after.Cloned-before.Cloned) * 1000 / float64(writes)
	}
	rep.set("mvcc.clones_per_1k_writes", perK, "count")
	win := after.PublishLatency
	for i := range win.Counts {
		win.Counts[i] -= before.PublishLatency.Counts[i]
	}
	win.Count -= before.PublishLatency.Count
	win.SumNanos -= before.PublishLatency.SumNanos
	if win.Count == 0 {
		win = after.PublishLatency
	}
	rep.set("mvcc.publish_p99_ns", win.QuantileNanos(0.99), "ns")
}

// layerShards reports the largest shard's share of the writes between
// two per-shard version vectors (of all writes since construction when
// the window wrote nothing). Each write publishes one version.
func layerShards(rep *report, before, after []uint64) {
	var total, most uint64
	for i := range after {
		n := after[i] - before[i]
		total += n
		most = max(most, n)
	}
	if total == 0 {
		for _, v := range after {
			total += v - 1
			most = max(most, v-1)
		}
	}
	frac := 0.0
	if total > 0 {
		frac = float64(most) / float64(total)
	}
	rep.set("index.sharded.max_shard_write_frac", frac, "frac")
}

func layerShape(rep *report, r shape.Report) {
	rep.set("segtree.fill", r.FillDegree, "frac")
	rep.set("segtree.reg_util", r.RegisterUtilization, "frac")
}

// rtSample holds the cumulative Go runtime counters the ladder reports.
type rtSample struct {
	allocBytes, gcCycles, pauseNS float64
}

func readRuntime() rtSample {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return rtSample{float64(s[0].Value.Uint64()), float64(s[1].Value.Uint64()), float64(ms.PauseTotalNs)}
}

// serverRuntime extracts the same counters from segserve's /metrics.
func serverRuntime(m map[string]float64) rtSample {
	return rtSample{
		m["segserve_go_heap_allocs_bytes_total"],
		m["segserve_go_gc_cycles_total"],
		m["segserve_go_gc_pause_seconds_sum"] * 1e9,
	}
}

func layerRuntime(rep *report, a, b rtSample, ops uint64) {
	rep.set("runtime.alloc_bytes_per_op", (b.allocBytes-a.allocBytes)/float64(max(ops, 1)), "B")
	rep.set("runtime.gc_cycles", b.gcCycles-a.gcCycles, "count")
	rep.set("runtime.gc_pause_ms", (b.pauseNS-a.pauseNS)/1e6, "ms")
}
