package main

// This file is the benchmark's fixed vocabulary: the four workloads, the
// end-to-end and per-layer metric names, and the two scales. BENCHMARK.json
// at the repository root repeats the names; bench_test.go asserts the two
// never drift apart.

import "gcplus"

// Load shape shared by every workload (see README.md "Load shape").
const (
	clients = 2 // closed loop; equals nproc on the reference box
	shards  = 2

	updateEvery = 10 // churn: the client claiming slot 10k submits batch k first
	opsPerBatch = 5  // 4 UA/UR edge toggles + 1 ADD or DEL

	setupRepeats = 3 // setup_s is the median of this many full set-ups
)

type streamKind int

const (
	streamRepeat streamKind = iota // TypeB pool, Zipf repeats: fits the cache
	streamScan                     // TypeA uniform/uniform + supergraph queries: does not fit
	streamChurn                    // TypeA Zipf/Zipf interleaved with update batches
)

// workloadSpec is one row of the workload table.
type workloadSpec struct {
	name string
	why  string
	// http drives POST /query and POST /update on Server.Handler() over
	// 127.0.0.1 instead of calling the gcplus.Server facade.
	http      bool
	transport string // router→shard transport
	durable   bool   // DataDir on, WAL fsync per batch
	stream    streamKind
	// ratePerSec sizes the generated stream: ratePerSec × --seconds slots,
	// about 2.5× what the reference box consumes, so a run is bounded by
	// its deadline and not by its inputs. A run that does exhaust the
	// stream stops early and says so.
	ratePerSec int
	// warmup is the number of leading slots executed before timing starts
	// (charged to setup_s); replay and subisoReplay size the ladder.
	warmup, replay, subisoReplay int
	// tailBatches is the length of a read-only workload's write tail: long
	// enough that update_p99_ms has over a hundred samples beyond it.
	// tailWriters is how many of the clients submit it, chosen per boundary
	// so that p99 does not sit on the knee between two latency modes, where
	// it moves ±20–50 % from run to run (see writeTail in run.go).
	tailBatches, tailWriters int
	// recoveries is how many times the run recovers; recovery_s is their
	// median. More where one recovery is short: a 0.1 s crash recovery moves
	// ±30 % from one to the next on a shared box, a 0.9 s rebuild ±5 %.
	recoveries int
	// fnvPrefix is the number of measured slots folded into answers_fnv
	// (read-only workloads). Fixed, so the digest does not depend on how
	// far a run got; a run that stops short reports the digest as missing.
	fnvPrefix int
}

var workloads = []workloadSpec{
	{
		name: "warm_repeat", stream: streamRepeat, transport: gcplus.TransportLocal,
		why:        "80 repeated patterns fit the 120-entry cache: ~100% hits, per-request overhead of router, shardhost and cache is the whole cost",
		ratePerSec: 40000, warmup: 3000, replay: 2000, subisoReplay: 500, fnvPrefix: 10000, tailBatches: 12000, tailWriters: 2, recoveries: 7,
	},
	{
		name: "cold_scan", stream: streamScan, transport: gcplus.TransportLocal,
		why:        "distinct queries far beyond the cache, every 10th a supergraph query: subiso and core verification do the work",
		ratePerSec: 3000, warmup: 600, replay: 1000, subisoReplay: 500, fnvPrefix: 4000, tailBatches: 12000, tailWriters: 2, recoveries: 5,
	},
	{
		name: "churn_durable", stream: streamChurn, transport: gcplus.TransportLocal, durable: true,
		why:        "Zipf queries beside a 5-op update batch every 10th slot with WAL fsync: invalidation, repair, WAL and recovery",
		ratePerSec: 4000, warmup: 1000, replay: 1000, subisoReplay: 500, recoveries: 25,
	},
	{
		name: "wire_repeat", stream: streamRepeat, transport: gcplus.TransportLoopback, http: true,
		why:        "the warm_repeat stream over HTTP keep-alive and the loopback shard transport: the full network path where it dominates",
		ratePerSec: 12000, warmup: 3000, replay: 2000, subisoReplay: 500, fnvPrefix: 10000, tailBatches: 12000, tailWriters: 1, recoveries: 5,
	},
}

func workloadByName(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// scale sizes the inputs. "full" is the measured configuration; "tiny" is
// for bench_test.go (about a second per workload) and divides the dataset
// and every per-workload count.
type scale struct {
	name     string
	graphs   int // dataset size
	poolSize int // repeat stream: positive pool; no-answer pool is a quarter of it
	divide   int // divides every per-workload count and rate
	auditMax int // sample queries re-answered by the oracle
}

var scales = map[string]scale{
	"full": {name: "full", graphs: 1200, poolSize: 64, divide: 1, auditMax: 500},
	"tiny": {name: "tiny", graphs: 200, poolSize: 16, divide: 20, auditMax: 60},
}

func (s scale) apply(w workloadSpec) workloadSpec {
	w.ratePerSec /= s.divide
	w.warmup /= s.divide
	w.replay /= s.divide
	w.subisoReplay /= s.divide
	w.fnvPrefix /= s.divide
	w.tailBatches /= s.divide
	return w
}

// metricSpec names one metric and its unit.
type metricSpec struct{ name, unit string }

// endToEnd lists what a user of the system sees. Every workload reports
// every metric; see README.md for what update_* and recovery_s mean on the
// read-only workloads.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"qps", "1/s"},
	{"query_p50_ms", "ms"},
	{"query_p99_ms", "ms"},
	{"update_p50_ms", "ms"},
	{"update_p99_ms", "ms"},
	{"recovery_s", "s"},
	{"peak_rss_mb", "MB"},
}

// perLayer lists the layer ladder's metrics, outside-in order of the
// README's table. A layer a workload does not exercise reports 0.
var perLayer = []metricSpec{
	{"graph.parse_us_p50", "us"},
	{"graph.parse_allocs_per_op", "count"},
	{"subiso.test_ns_p50", "ns"},
	{"subiso.test_ns_mean", "ns"},
	{"subiso.compile_us_p50", "us"},
	{"subiso.allocs_per_test", "count"},
	{"subiso.tests", "count"},
	{"core.query_us_p50", "us"},
	{"core.query_us_p99", "us"},
	{"core.post_update_query_us_p50", "us"},
	{"core.apply_op_us_p50", "us"},
	{"core.allocs_per_query", "count"},
	{"core.hit_rate", "ratio"},
	{"core.tests_per_query", "count"},
	{"core.tests_saved_share", "ratio"},
	{"cache.hit_candidates_per_query", "count"},
	{"cache.hit_scanned_per_query", "count"},
	{"core.repair_us_per_bit", "us"},
	{"core.repaired_bits", "count"},
	{"cache.validity_ratio_end", "ratio"},
	{"shardhost.self_us_p50", "us"},
	{"shardhost.wal_append_us_p50", "us"},
	{"transport.local_self_us_p50", "us"},
	{"transport.wire_us_p50", "us"},
	{"transport.wire_us_p99", "us"},
	{"transport.wire_allocs_per_op", "count"},
	{"transport.applyop_wire_us_p50", "us"},
	{"router.self_us_p50", "us"},
	{"router.fanout_speedup", "ratio"},
	{"router.update_self_us_p50", "us"},
	{"router.allocs_per_query", "count"},
	{"router.shed", "count"},
	{"router.deadline_exceeded", "count"},
	{"router.http_self_us_p50", "us"},
	{"router.http_self_us_p99", "us"},
	{"router.http_allocs_per_op", "count"},
	{"persist.wal_append_us_p50", "us"},
	{"persist.wal_append_us_p99", "us"},
	{"persist.wal_bytes_per_op", "B"},
	{"persist.snapshot_s", "s"},
	{"router.contention_us_p50", "us"},
	{"proc.allocs_per_query", "count"},
	{"proc.alloc_bytes_per_query", "B"},
	{"proc.gc_pause_ms_total", "ms"},
	{"proc.gc_cycles", "count"},
	{"bench.ladder_s", "s"},
}
