package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"time"

	simdtree "repro"
	"repro/internal/bitmask"
	"repro/internal/driver"
	"repro/internal/index"
	"repro/internal/kary"
	"repro/internal/segclient"
	"repro/internal/segtree"
	"repro/internal/simd"
)

const (
	// ladderProbes is the number of random lookup-class probes each
	// in-process rung times per round; ladderRounds rounds are taken and
	// the median round reported.
	ladderProbes = 100_000
	ladderRounds = 7
	// ladderHTTP is the number of requests of each kind the HTTP rungs
	// send, interleaved on one connection each.
	ladderHTTP = 3_000
	// ladderPreload is the key count of the ladder's own segserve,
	// preloaded in-process by segserve's -preload flag.
	ladderPreload = 100_000
	// nodeKeys fills one Seg-Tree node of 64-bit keys (the paper's
	// Table 3).
	nodeKeys = 242
)

var sink uint64

// perOp runs fn, which performs n operations, ladderRounds times and
// returns the median nanoseconds per operation.
func perOp(n int, fn func()) float64 {
	per := make([]float64, ladderRounds)
	for r := range per {
		t := time.Now()
		fn()
		per[r] = float64(time.Since(t).Nanoseconds()) / float64(n)
	}
	return median(per)
}

// getter is the read face shared by every rung from the Seg-Tree up.
type getter interface {
	Get(uint64) (uint64, bool)
}

// timeGets prices ix.Get over the probes and counts misses into rep.
func timeGets(rep *report, name string, ix getter, probes []uint64) float64 {
	misses := 0
	ns := perOp(len(probes), func() {
		for _, k := range probes {
			v, ok := ix.Get(k)
			if !ok || !validValue(k, v, 0) {
				misses++
			}
		}
	})
	rep.attempted += uint64(len(probes) * ladderRounds)
	if misses > 0 {
		rep.failed += uint64(misses)
		rep.problem("%s: %d wrong answers", name, misses)
	}
	return ns
}

// fill puts each key with its generation-0 value, in the given order.
func fill(ix interface{ Put(uint64, uint64) bool }, keys []uint64) {
	for _, k := range keys {
		ix.Put(k, packValue(k, 0))
	}
}

// runLadder prices one 64-bit Get on the lookup key set at every layer,
// calling each layer's public functions directly, and reports each
// rung and each layer's self time: its rung minus the cost of the calls
// it makes into the layer below (one call for the wrapper layers, one
// compare per k-ary level for a node search, the counted node visits
// per Get for the Seg-Tree).
func runLadder(ctx context.Context, cfg config, rep *report) error {
	rng := rand.New(rand.NewSource(cfg.seed))
	keys := randomKeys(rng, lookupKeys)
	probes := make([]uint64, ladderProbes)
	for i := range probes {
		probes[i] = keys[rng.Intn(len(keys))]
	}

	// SIMD kernel: one compare of a broadcast probe against a register of
	// two adjacent keys, and the movemask the bitmask evaluator reads.
	as, bs := make([]simd.Vec, len(probes)), make([]simd.Vec, len(probes))
	for i, k := range probes {
		j := rng.Intn(len(keys) - 1)
		as[i], bs[i] = simd.Set1Epi64(k), simd.Vec{Lo: keys[j], Hi: keys[j+1]}
	}
	cmpmask := perOp(len(as), func() {
		var acc uint16
		for i := range as {
			acc += simd.MoveMaskEpi8(simd.CmpGtEpi64(as[i], bs[i]))
		}
		sink += uint64(acc)
	})
	rep.set("simd.cmpmask_ns", cmpmask, "ns")

	// k-ary search of one full Seg-Tree node.
	nodeSorted := make([]uint64, nodeKeys)
	for i := range nodeSorted {
		nodeSorted[i] = keys[i*(len(keys)/nodeKeys)]
	}
	node := kary.Build(nodeSorted, kary.DepthFirst)
	nodeNS := perOp(len(probes), func() {
		acc := 0
		for _, k := range probes {
			acc += node.Search(k, bitmask.Popcount)
		}
		sink += uint64(acc)
	})
	rep.set("kary.node_search_ns", nodeNS, "ns")
	rep.set("kary.self_ns", nodeNS-float64(node.Levels())*cmpmask, "ns")

	// The index layers. Sharded splits the key set 16 ways, so the bare
	// Seg-Tree and Versioned rungs hold one shard's share of it (a
	// contiguous sixteenth) and are probed within it: every rung then
	// searches trees of the same height.
	part := keys[:len(keys)/shards]
	partProbes := make([]uint64, len(probes))
	for i := range partProbes {
		partProbes[i] = part[rng.Intn(len(part))]
	}
	tree := segtree.New[uint64, uint64](segtree.DefaultConfig[uint64]())
	fill(tree, part)
	ver := index.NewVersioned(func() index.Index[uint64, uint64] {
		return segtree.New[uint64, uint64](segtree.DefaultConfig[uint64]())
	})
	fill(ver, part)
	sh := newIndex()
	fill(sh, keys)
	ins := simdtree.NewInstrumentedIndex[uint64, uint64](
		simdtree.WithStructure(simdtree.StructureSegTree), simdtree.WithShards(shards))
	ins.EnableSampling(1024, time.Millisecond) // segserve's serving default
	fill(ins, keys)

	treeNS := timeGets(rep, "segtree", tree, partProbes)
	verNS := timeGets(rep, "versioned", ver, partProbes)
	shNS := timeGets(rep, "sharded", sh, probes)
	ins.Reset()
	insNS := timeGets(rep, "instrumented", ins, probes)
	c := ins.Counters().Read()
	gets := float64(len(probes) * ladderRounds)
	visits := float64(c.NodeVisits) / gets
	rep.set("simd.cmps_per_get", float64(c.SIMDComparisons)/gets, "count")
	rep.set("bitmask.evals_per_get", float64(c.MaskEvaluations)/gets, "count")
	rep.set("segtree.node_visits_per_get", visits, "count")
	rep.set("segtree.get_ns", treeNS, "ns")
	rep.set("segtree.self_ns", treeNS-visits*nodeNS, "ns")
	rep.set("index.versioned.get_ns", verNS, "ns")
	rep.set("index.versioned.self_ns", verNS-treeNS, "ns")
	rep.set("index.sharded.get_ns", shNS, "ns")
	rep.set("index.sharded.self_ns", shNS-verNS, "ns")
	rep.set("index.instrumented.get_ns", insNS, "ns")
	rep.set("index.instrumented.self_ns", insNS-shNS, "ns")

	batches := len(probes) / batchSize
	wrong := 0
	rep.set("index.batch.ns_per_key", perOp(batches*batchSize, func() {
		for b := 0; b < batches; b++ {
			ks := probes[b*batchSize : (b+1)*batchSize]
			vs, found := sh.GetBatch(ks)
			if checkBatch(ks, vs, found, 0) != nil {
				wrong++
			}
		}
	}), "ns")
	rep.attempted += uint64(batches * ladderRounds)
	if wrong > 0 {
		rep.failed += uint64(wrong)
		rep.problem("batch rung: %d wrong batches", wrong)
	}

	// Writes: overwrites of loaded keys, then inserts of fresh ones.
	overwrites := partProbes[:len(partProbes)/10]
	rep.set("segtree.put_ns", perOp(len(overwrites), func() { fill(tree, overwrites) }), "ns")
	rep.set("index.versioned.put_ns", perOp(len(overwrites), func() { fill(ver, overwrites) }), "ns")
	fresh := make([]uint64, 5_000)
	for i := range fresh {
		fresh[i] = rng.Uint64()
	}
	t := time.Now()
	fill(tree, fresh)
	rep.set("segtree.insert_ns", float64(time.Since(t).Nanoseconds())/float64(len(fresh)), "ns")

	if err := ladderHTTPRungs(ctx, cfg, rep, insNS); err != nil {
		return err
	}
	return ladderDriver(ctx, cfg, rep)
}

// ladderHTTPRungs prices segserve's /get handler and segclient against a
// segserve of its own, one connection per client. Each round sends a raw
// GET of a path segserve does not route (404: HTTP, the logging and span
// middleware and the mux, but no handler), a raw /healthz, a raw /get
// and a segclient.Get. A rung is the median of the per-round
// differences, so drift during the loop cancels. /healthz is reported
// but is no baseline: it reads every shard's MVCC state.
func ladderHTTPRungs(ctx context.Context, cfg config, rep *report, insNS float64) error {
	srv, err := startServer(ctx, cfg.segserve, "-preload", strconv.Itoa(ladderPreload))
	if err != nil {
		return err
	}
	defer srv.stop()
	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
	defer hc.CloseIdleConnections()
	sc := segclient.New(srv.base)
	raw := func(path string, want int) (string, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, srv.base+path, nil)
		if err != nil {
			return "", err
		}
		resp, err := hc.Do(req)
		if err != nil {
			return "", err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if resp.StatusCode != want {
			return "", fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
		}
		return string(body), err
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	var health, rtt hist
	var get, client []float64
	log0 := srv.logBytes()
	bad := 0
	for i := 0; i < ladderHTTP && ctx.Err() == nil; i++ {
		// Distinct keys, sent in a fresh random order each round, so that
		// neither a warm key nor a fixed position favours one request.
		k1, k2 := strconv.Itoa(rng.Intn(ladderPreload)), rng.Intn(ladderPreload)
		var took [4]time.Duration
		var errs [4]error
		for _, j := range rng.Perm(4) {
			t := time.Now()
			switch j {
			case 0:
				_, errs[j] = raw("/unrouted", http.StatusNotFound)
			case 1:
				_, errs[j] = raw("/healthz", http.StatusOK)
			case 2:
				var body string
				if body, errs[j] = raw("/get?key="+k1, http.StatusOK); errs[j] == nil && body != k1+"\n" {
					errs[j] = fmt.Errorf("/get?key=%s answered %q", k1, body)
				}
			case 3:
				var v string
				if v, errs[j] = sc.Get(ctx, uint64(k2)); errs[j] == nil && v != strconv.Itoa(k2) {
					errs[j] = fmt.Errorf("segclient.Get(%d) answered %q", k2, v)
				}
			}
			took[j] = time.Since(t)
		}
		health.observe(took[1])
		rtt.observe(took[3])
		get = append(get, float64(took[2]-took[0]))
		client = append(client, float64(took[3]-took[2]))
		for _, err := range errs {
			if err != nil {
				bad++
				break
			}
		}
	}
	rep.attempted += 4 * ladderHTTP
	if bad > 0 {
		rep.failed += uint64(bad)
		rep.problem("HTTP rungs: %d of %d probe rounds failed or answered wrongly", bad, ladderHTTP)
	}
	if err := srv.died(); err != nil {
		rep.problem("%v", err)
	}
	g := median(get)
	rep.set("segserve.healthz_rtt_ns", health.quantile(0.5), "ns")
	rep.set("segserve.get_ns", g, "ns")
	rep.set("segserve.get_self_ns", g-insNS, "ns")
	rep.set("segserve.log_bytes_per_req", float64(srv.logBytes()-log0)/float64(4*ladderHTTP), "B")
	rep.set("segclient.get_rtt_ns", rtt.quantile(0.5), "ns")
	rep.set("segclient.self_ns", median(client), "ns")
	return nil
}

// nopTarget is a driver.Target that does nothing, to price the load
// generators themselves.
type nopTarget struct{}

func (nopTarget) Get(context.Context, uint64) (uint64, bool, error) { return 0, true, nil }
func (nopTarget) Put(context.Context, uint64, uint64) error         { return nil }
func (nopTarget) Delete(context.Context, uint64) (bool, error)      { return true, nil }
func (nopTarget) GetBatch(_ context.Context, ks []uint64) ([]uint64, []bool, error) {
	return make([]uint64, len(ks)), make([]bool, len(ks)), nil
}
func (nopTarget) Scan(context.Context, uint64, uint64, int) (int, error) { return 0, nil }

// ladderDriver prices internal/driver's closed loop per op against a
// no-op target, and the benchmark's own open-loop pacer's lateness at
// the served rate.
func ladderDriver(ctx context.Context, cfg config, rep *report) error {
	spec := driver.Spec{
		Read: 100, Write: 0, Scan: 0, Batch: 0,
		Dist: driver.Uniform, Keys: 1000, Clients: 1, Ops: 200_000,
		BatchSize: batchSize, ScanLen: scanLen, Seed: cfg.seed,
	}
	res, err := driver.Run[uint64, uint64](ctx, nopTarget{}, spec, func(k uint64) uint64 { return k })
	if err != nil {
		return fmt.Errorf("driver rung: %w", err)
	}
	rep.set("driver.self_ns", float64(res.Elapsed.Nanoseconds())/float64(res.Total), "ns")
	noop := func(int, *rand.Rand) (kind, time.Time, error) { return kGet, time.Now(), nil }
	p := openLoop(ctx, 2, servedRate, 500*time.Millisecond, 1, cfg.seed, noop)
	rep.set("driver.late_p99_ns", p.late.quantile(0.99), "ns")
	return nil
}
