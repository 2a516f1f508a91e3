// Command segbench regenerates every table and figure of the paper's
// evaluation (§5) on the software-SIMD reproduction, plus the module's
// own extension experiments. Run without flags to execute all
// experiments, or select one with -experiment.
//
//	segbench -experiment fig10 -probes 10000
//	segbench -experiment batch -json BENCH_batch.json
//
// Experiments: table2, table3, fig9, fig10, fig11, memory, karysearch,
// batch, sharded, contention, all. With -json PATH, every measurement is
// also written to PATH as a machine-readable JSON array (see
// internal/bench.Measurement).
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/bench"
)

func main() {
	experiment := flag.String("experiment", "all",
		"which experiment to run: table2, table3, fig9, fig10, fig11, memory, karysearch, batch, sharded, contention, all")
	probes := flag.Int("probes", 10000, "random searches per measurement (paper: 10,000)")
	rounds := flag.Int("rounds", 3, "measurement rounds; fastest is reported")
	seed := flag.Int64("seed", 1, "workload seed")
	fig11Keys := flag.Int("fig11keys", 20000000, "maximum keys per depth step in Figure 11")
	memKeys := flag.Int("memkeys", 1638400, "consecutive keys for the memory experiment (paper: ~1.6 M)")
	jsonPath := flag.String("json", "", "also write all measurements to this file as a JSON array")
	metrics := flag.Bool("metrics", false,
		"record per-search cost-model counters (SIMD comparisons, node visits, ...) into the -json output via an extra untimed probe pass per structure")
	flag.Parse()

	o := bench.Options{Probes: *probes, Rounds: *rounds, Seed: *seed, Metrics: *metrics}
	if *jsonPath != "" {
		o.Rec = &bench.Recorder{}
	} else if *metrics {
		fmt.Fprintln(os.Stderr, "segbench: -metrics has no effect without -json (counters are recorded, not tabulated)")
	}

	run := func(name, title, body string) {
		fmt.Printf("== %s — %s ==\n%s\n", name, title, body)
	}

	selected := func(name string) bool { return *experiment == "all" || *experiment == name }

	any := false
	if selected("table2") {
		any = true
		run("Table 2", "k values for a 128-bit SIMD register", bench.Table2())
	}
	if selected("table3") {
		any = true
		run("Table 3", "node characteristics", bench.Table3())
	}
	if selected("fig9") {
		any = true
		run("Figure 9", "bitmask evaluation algorithms, 8-bit Seg-Tree", bench.Figure9(o))
	}
	if selected("fig10") {
		any = true
		run("Figure 10", "Seg-Tree search: binary vs. BF-SIMD vs. DF-SIMD", bench.Figure10(o))
	}
	if selected("fig11") {
		any = true
		run("Figure 11", "Seg-Tree vs. Seg-Trie speedup over B+-Tree, 64-bit keys",
			bench.Figure11(o, *fig11Keys))
	}
	if selected("memory") {
		any = true
		run("Memory", "key-storage reduction (abstract: 8x for the Seg-Trie)",
			bench.Memory(*memKeys, o.Rec))
	}
	if selected("karysearch") {
		any = true
		run("k-ary search", "flat sorted arrays, §2.2 micro-benchmark",
			bench.KarySearch(o, []int{256, 4096, 65536, 1 << 20}))
	}
	if selected("batch") {
		any = true
		run("Batch", "interleaved batched search vs. per-probe Get", bench.Batch(o))
	}
	if selected("sharded") {
		any = true
		run("Sharded", "sharded vs. global-lock concurrent puts", bench.Sharded(o))
	}
	if selected("contention") {
		any = true
		run("Contention", "reader latency with vs. without a concurrent writer",
			bench.Contention(o))
	}
	if !any {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *experiment)
		flag.Usage()
		os.Exit(2)
	}
	if o.Rec != nil {
		if err := o.Rec.WriteJSONFile(*jsonPath); err != nil {
			fmt.Fprintf(os.Stderr, "writing %s: %v\n", *jsonPath, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %d measurements to %s\n", len(o.Rec.Measurements()), *jsonPath)
	}
}
