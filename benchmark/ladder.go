package main

// The layer ladder. After the timed run, a single client replays the first
// measured requests of the workload once per rung, outside-in: HTTP, the
// router facade with two shards and with one, the shard transports, the
// shard host, the core runtime, raw Method M. Every rung is a fresh stack
// over the same inputs, so the cache state at request i is the same on
// every rung and a layer's self time at request i is its rung's span minus
// the span of the rung below. The spans are recorded here, around the calls
// into each layer, from the benchmark's own files (one rung_*.go per rung).

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"slices"
	"time"

	"gcplus"
)

// span is one timed call into a layer.
type span struct {
	Workload string `json:"workload"`
	Layer    string `json:"layer"`
	Op       string `json:"op"`
	// Req is the replayed request the call belongs to: the query's index
	// in the replay, or the batch's index for update ops.
	Req     int   `json:"req"`
	StartNS int64 `json:"start_ns"` // since the ladder began
	EndNS   int64 `json:"end_ns"`
	// Parent is the layer whose span at the same Req contains this one on
	// the real request path.
	Parent string `json:"parent,omitempty"`
}

// spanLog keeps spans in memory; they are written out once, at the end.
type spanLog struct {
	workload string
	t0       time.Time
	spans    []span
}

func (l *spanLog) add(layer, op, parent string, req int, start time.Time, d time.Duration) {
	s := start.Sub(l.t0)
	l.spans = append(l.spans, span{
		Workload: l.workload, Layer: layer, Op: op, Req: req, Parent: parent,
		StartNS: int64(s), EndNS: int64(s + d),
	})
}

func (l *spanLog) flush(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range l.spans {
		if err := enc.Encode(&l.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// rungRun is what one rung's replay measured, index-aligned by request so
// rungs can be subtracted from one another.
type rungRun struct {
	layer    string
	queryNS  []int64  // per replayed query
	updateNS []int64  // per replayed batch, submit→ack
	opNS     []int64  // per update op, where the rung applies ops one by one
	digests  []uint64 // per replayed query: hash of the answer ids
	// postUpdate marks the queries that directly follow a batch.
	postUpdate []bool

	tests, saved, candidates  int
	hitCandidates, hitScanned int
	zeroTest                  int
	mallocs                   uint64
}

func (r *rungRun) allocsPerQuery() float64 {
	if len(r.queryNS) == 0 {
		return 0
	}
	return float64(r.mallocs) / float64(len(r.queryNS))
}

// replayOpts selects what a rung's replay does.
type replayOpts struct {
	layer, parent string
	n             int  // measured requests
	skipWarmQuery bool // stateless rungs: apply the warm-up's batches, skip its queries
}

// replay drives tgt through the warm-up slots unrecorded, then through n
// measured slots with one span per call.
func replay(l *spanLog, c runConfig, in *inputs, tgt target, o replayOpts) (*rungRun, error) {
	run := &rungRun{layer: o.layer}
	churn := c.w.stream == streamChurn
	step := func(slot int, measured bool) error {
		if churn && slot%updateEvery == 0 {
			k := slot / updateEvery
			var perOp func(int, time.Duration)
			if measured {
				perOp = func(_ int, d time.Duration) { run.opNS = append(run.opNS, int64(d)) }
			}
			t0 := time.Now()
			_, err := tgt.Update(0, &in.batches[k], perOp)
			d := time.Since(t0)
			if err != nil {
				return fmt.Errorf("%s rung: batch %d: %w", o.layer, k, err)
			}
			if measured {
				run.updateNS = append(run.updateNS, int64(d))
				l.add(o.layer, "update", o.parent, k, t0, d)
			}
		}
		if !measured && o.skipWarmQuery {
			return nil
		}
		r := in.req(slot)
		t0 := time.Now()
		a, err := tgt.Query(0, r, true)
		d := time.Since(t0)
		if err != nil {
			return fmt.Errorf("%s rung: slot %d: %w", o.layer, slot, err)
		}
		if measured {
			run.queryNS = append(run.queryNS, int64(d))
			run.digests = append(run.digests, answerHash(0, a.ids))
			run.postUpdate = append(run.postUpdate, churn && slot%updateEvery == 0)
			run.tests += a.tests
			run.saved += a.saved
			run.candidates += a.candidates
			run.hitCandidates += a.hitCandidates
			run.hitScanned += a.hitScanned
			if a.zeroTest {
				run.zeroTest++
			}
			l.add(o.layer, "query", o.parent, slot-c.w.warmup, t0, d)
		}
		return nil
	}
	for slot := 0; slot < c.w.warmup; slot++ {
		if err := step(slot, false); err != nil {
			return nil, err
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for slot := c.w.warmup; slot < c.w.warmup+o.n; slot++ {
		if err := step(slot, true); err != nil {
			return nil, err
		}
	}
	runtime.ReadMemStats(&after)
	run.mallocs = after.Mallocs - before.Mallocs
	return run, nil
}

type ladderResult struct {
	metrics    map[string]metric
	counts     map[string]float64
	mismatches int // answers that differ between rungs
	compared   int
	problems   []string
	spans      *spanLog
}

func runLadder(c runConfig, in *inputs, timed *phaseResult) (*ladderResult, error) {
	start := time.Now()
	fmt.Fprintf(c.log, "%s: layer ladder, %d requests per rung\n", c.w.name, c.w.replay)
	res := &ladderResult{
		metrics: map[string]metric{}, counts: map[string]float64{},
		spans: &spanLog{workload: c.w.name, t0: start},
	}
	for _, m := range perLayer {
		res.metrics[m.name] = metric{Unit: m.unit} // a layer the workload does not exercise stays 0
	}
	set := func(name string, v float64, samples, beyond int) {
		res.metrics[name] = metric{Value: v, Unit: unitOf(name), Samples: samples, Beyond: beyond}
	}
	setPct := func(name string, sorted []int64, p, div float64) {
		v, beyond := percentile(sorted, p)
		set(name, float64(v)/div, len(sorted), beyond)
	}
	tmp, err := os.MkdirTemp(c.outDir, "tmp-ladder-"+c.w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	l := res.spans
	durable := c.w.durable

	// Innermost first, so every later rung's answers can be checked against
	// the core rung's at the same request.
	core, err := rungCore(l, c, in)
	if err != nil {
		return nil, err
	}
	check := func(r *rungRun) {
		n := min(len(r.digests), len(core.digests))
		for i := 0; i < n; i++ {
			res.compared++
			if r.digests[i] != core.digests[i] {
				res.mismatches++
				if len(res.problems) < 5 {
					res.problems = append(res.problems, fmt.Sprintf("ladder: %s rung answers request %d differently from the core rung", r.layer, i))
				}
			}
		}
	}

	sub, err := rungSubiso(l, c, in)
	if err != nil {
		return nil, err
	}
	check(sub.run)
	graphRung := rungGraph(l, c, in)
	host, err := rungShardhost(l, c, in, tmp)
	if err != nil {
		return nil, err
	}
	check(host.run)
	local, err := rungTransportLocal(l, c, in, tmp)
	if err != nil {
		return nil, err
	}
	check(local.run)
	wire, err := rungTransportLoopback(l, c, in, tmp)
	if err != nil {
		return nil, err
	}
	check(wire.run)
	router1, err := rungRouter(l, c, in, 1, tmp)
	if err != nil {
		return nil, err
	}
	check(router1.run)
	router2, err := rungRouter(l, c, in, shards, tmp)
	if err != nil {
		return nil, err
	}
	check(router2.run)
	httpRun, err := rungHTTP(l, c, in, gcplus.TransportLocal, "http", tmp)
	if err != nil {
		return nil, err
	}
	check(httpRun)
	// The top rung is the timed run's own stack at one client. For the
	// facade workloads that is the two-shard router rung again.
	top := router2.run
	if c.w.http || c.w.transport != gcplus.TransportLocal {
		if top, err = rungHTTP(l, c, in, c.w.transport, "top", tmp); err != nil {
			return nil, err
		}
		check(top)
	}

	// graph
	setPct("graph.parse_us_p50", graphRung.parseNS, 0.50, 1e3)
	set("graph.parse_allocs_per_op", graphRung.allocsPerParse, len(graphRung.parseNS), 0)

	// subiso
	setPct("subiso.test_ns_p50", sub.testNS, 0.50, 1)
	set("subiso.test_ns_mean", mean(sub.testNS), len(sub.testNS), 0)
	setPct("subiso.compile_us_p50", sub.compileNS, 0.50, 1e3)
	if len(sub.testNS) > 0 {
		set("subiso.allocs_per_test", float64(sub.run.mallocs)/float64(len(sub.testNS)), len(sub.testNS), 0)
	}
	set("subiso.tests", float64(len(sub.testNS)), len(sub.run.queryNS), 0)

	// core
	coreSorted := sortedCopy(core.queryNS)
	nq := float64(len(core.queryNS))
	setPct("core.query_us_p50", coreSorted, 0.50, 1e3)
	setPct("core.query_us_p99", coreSorted, 0.99, 1e3)
	var post []int64
	for i, p := range core.postUpdate {
		if p {
			post = append(post, core.queryNS[i])
		}
	}
	slices.Sort(post)
	setPct("core.post_update_query_us_p50", post, 0.50, 1e3)
	setPct("core.apply_op_us_p50", sortedCopy(core.opNS), 0.50, 1e3)
	set("core.allocs_per_query", core.allocsPerQuery(), len(core.queryNS), 0)
	set("core.hit_rate", float64(core.zeroTest)/nq, len(core.queryNS), 0)
	set("core.tests_per_query", float64(core.tests)/nq, len(core.queryNS), 0)
	if total := core.tests + core.saved; total > 0 {
		set("core.tests_saved_share", float64(core.saved)/float64(total), len(core.queryNS), 0)
	}
	set("cache.hit_candidates_per_query", float64(core.hitCandidates)/nq, len(core.queryNS), 0)
	set("cache.hit_scanned_per_query", float64(core.hitScanned)/nq, len(core.queryNS), 0)
	res.counts["core.tests_per_query"] = float64(core.tests) / nq
	res.counts["core.hit_rate"] = float64(core.zeroTest) / nq
	res.counts["subiso.tests"] = float64(len(sub.testNS))

	// repair and persist: only the churn stream gives them work.
	if c.w.stream == streamChurn {
		rep, err := rungRepair(l, c, in)
		if err != nil {
			return nil, err
		}
		check(rep.run)
		if rep.repairedBits > 0 {
			set("core.repair_us_per_bit", float64(rep.drainNS)/1e3/float64(rep.repairedBits), int(rep.repairedBits), 0)
		}
		set("core.repaired_bits", float64(rep.repairedBits), len(rep.run.updateNS), 0)
		set("cache.validity_ratio_end", rep.validityEnd, 1, 0)

		per, err := rungPersist(l, c, in, tmp)
		if err != nil {
			return nil, err
		}
		appendSorted := sortedCopy(per.appendNS)
		setPct("persist.wal_append_us_p50", appendSorted, 0.50, 1e3)
		setPct("persist.wal_append_us_p99", appendSorted, 0.99, 1e3)
		set("persist.wal_bytes_per_op", float64(per.bytes)/float64(per.ops), per.ops, 0)
	}
	if durable {
		set("persist.snapshot_s", router2.snapshot.Seconds(), 1, 0)
		setPct("shardhost.wal_append_us_p50", sortedCopy(host.walNS), 0.50, 1e3)
	}

	// self times: rung minus the rung below, paired by request.
	setPct("shardhost.self_us_p50", pairedDiff(host.run.queryNS, core.queryNS), 0.50, 1e3)
	setPct("transport.local_self_us_p50", pairedDiff(local.run.queryNS, host.run.queryNS), 0.50, 1e3)
	wireDiff := pairedDiff(wire.run.queryNS, local.run.queryNS)
	setPct("transport.wire_us_p50", wireDiff, 0.50, 1e3)
	setPct("transport.wire_us_p99", wireDiff, 0.99, 1e3)
	set("transport.wire_allocs_per_op", wire.run.allocsPerQuery()-local.run.allocsPerQuery(), len(wire.run.queryNS), 0)
	setPct("transport.applyop_wire_us_p50", pairedDiff(wire.run.opNS, local.run.opNS), 0.50, 1e3)
	setPct("router.self_us_p50", pairedDiff(router1.run.queryNS, local.run.queryNS), 0.50, 1e3)
	r1p50, _ := percentile(sortedCopy(router1.run.queryNS), 0.50)
	r2Sorted := sortedCopy(router2.run.queryNS)
	r2p50, _ := percentile(r2Sorted, 0.50)
	if r2p50 > 0 {
		set("router.fanout_speedup", float64(r1p50)/float64(r2p50), len(r2Sorted), 0)
	}
	setPct("router.update_self_us_p50", pairedDiff(router1.run.updateNS, local.run.updateNS), 0.50, 1e3)
	set("router.allocs_per_query", router1.run.allocsPerQuery()-local.run.allocsPerQuery(), len(router1.run.queryNS), 0)
	set("router.shed", float64(router1.shed+router2.shed), 1, 0)
	set("router.deadline_exceeded", float64(router1.deadline+router2.deadline), 1, 0)
	httpDiff := pairedDiff(httpRun.queryNS, router2.run.queryNS)
	setPct("router.http_self_us_p50", httpDiff, 0.50, 1e3)
	setPct("router.http_self_us_p99", httpDiff, 0.99, 1e3)
	set("router.http_allocs_per_op", httpRun.allocsPerQuery()-router2.run.allocsPerQuery(), len(httpRun.queryNS), 0)

	// What no single-client rung sees: waiting behind the other client.
	timedP50, _ := percentile(timed.queryNS, 0.50)
	topP50, _ := percentile(sortedCopy(top.queryNS), 0.50)
	set("router.contention_us_p50", float64(timedP50-topP50)/1e3, len(timed.queryNS), 0)
	if n := float64(len(timed.queryNS)); n > 0 {
		set("proc.allocs_per_query", float64(timed.mem.mallocs)/n, len(timed.queryNS), 0)
		set("proc.alloc_bytes_per_query", float64(timed.mem.bytes)/n, len(timed.queryNS), 0)
	}
	set("proc.gc_pause_ms_total", float64(timed.mem.gcPauseNS)/1e6, int(timed.mem.gcCycles), 0)
	set("proc.gc_cycles", float64(timed.mem.gcCycles), 1, 0)
	set("bench.ladder_s", time.Since(start).Seconds(), 1, 0)
	return res, nil
}
