package router

import (
	"strconv"
	"time"

	"gcplus/internal/obs"
)

// This file builds the server's Prometheus registry. Two recording
// styles coexist:
//
//   - Live histograms (per-stage latencies, queue wait, WAL appends,
//     snapshot wall time) are owned by the shards/runtimes and record on
//     the hot path; the registry holds references and a scrape renders
//     whatever the atomics say at that instant.
//   - Snapshot gauges and counters (queue depths, validity ratios, WAL
//     bytes, repair counters, ...) are authoritatively tracked by shard
//     state that only the owner goroutine may read. A scrape first takes
//     one epoch-consistent Stats() snapshot — the same mechanism /stats
//     uses — and mirrors it into the registered instruments before
//     rendering, so /metrics and /stats can never disagree about a
//     counter within a scrape.
//
// Metric names are stable API: the CI observability smoke greps for the
// core series, and dashboards are built on them.

// serverObs bundles the registry with the mirrored instruments a scrape
// refreshes from a Stats snapshot.
type serverObs struct {
	reg *obs.Registry

	// Aggregate (server-wide) instruments.
	queries          *obs.Counter
	epoch            *obs.Gauge
	liveGraphs       *obs.Gauge
	hitRate          *obs.Gauge
	validityRatio    *obs.Gauge
	cacheEntries     *obs.Gauge
	cacheWindow      *obs.Gauge
	cacheCapacity    *obs.Gauge
	repairPending    *obs.Gauge
	repairedBits     *obs.Counter
	repairDropped    *obs.Counter
	slowQueries      *obs.Counter
	uptime           *obs.Gauge
	walBytes         *obs.Gauge
	walAppends       *obs.Counter
	walAppendErrs    *obs.Counter
	snapshotsWritten *obs.Counter
	lastSnapEpoch    *obs.Gauge
	planCacheHits    *obs.Counter
	planCacheMisses  *obs.Counter

	// Resilience instruments (mirrored from Stats like the rest).
	// degradedSeconds is a monotone float, hence a Gauge instrument
	// despite the _total name.
	degradeLevel    *obs.Gauge
	degradedSeconds *obs.Gauge
	shedQueries     *obs.Counter
	shedUpdates     *obs.Counter
	durableEpoch    *obs.Gauge
	walVolatile     *obs.Gauge
	// deadlineStage maps the deadlineCounters stages to their labeled
	// series; the label set is fixed at registration.
	deadlineStage map[string]*obs.Counter

	// Transport instruments. transportReqs counts ShardClient calls by
	// service method (incremented live at dispatch, not mirrored);
	// shardRTT records the router-observed round trip of every query
	// dispatch, per shard.
	transportReqs map[string]*obs.Counter
	shardRTT      []*obs.Histogram

	// Per-shard instruments, indexed by shard id.
	shardQueries       []*obs.Counter
	shardLiveGraphs    []*obs.Gauge
	shardHitRate       []*obs.Gauge
	shardValidity      []*obs.Gauge
	shardQueueLen      []*obs.Gauge
	shardRepairPending []*obs.Gauge
	shardRepairDropped []*obs.Counter
	shardWALBytes      []*obs.Gauge
}

// noteTransport bumps the per-method transport request counter by n.
func (o *serverObs) noteTransport(method string, n int64) {
	if c := o.transportReqs[method]; c != nil {
		c.Add(n)
	}
}

// observeRTT records one query dispatch's round trip for shard i,
// citing the sampled trace (if any) as the bucket's exemplar.
func (o *serverObs) observeRTT(i int, d time.Duration, traceID uint64) {
	if i >= 0 && i < len(o.shardRTT) {
		o.shardRTT[i].Observe(d)
		if traceID != 0 {
			o.shardRTT[i].SetExemplar(d, traceID)
		}
	}
}

// stageHistNames orders the per-stage histogram series; the stage label
// values match the Metrics field vocabulary of the paper's evaluation.
var stageHistNames = []string{
	"query", "hit", "verify", "verify_cpu", "overhead", "consistency", "repair_verify", "plan",
}

// initObs builds the registry over the constructed shards. Called from
// New after the shards exist (cold or recovered) and before they start:
// registration is not concurrency-safe with scrapes, construction time
// is the one moment neither queries nor scrapes can be running.
func (s *Server) initObs() {
	o := &serverObs{reg: obs.NewRegistry()}
	r := o.reg

	o.queries = r.Counter("gcplus_queries_total",
		"Queries served (max per-shard count; every query touches every shard).", nil)
	o.epoch = r.Gauge("gcplus_epoch", "Current dataset version (applied update batches).", nil)
	o.liveGraphs = r.Gauge("gcplus_live_graphs", "Live dataset graphs across shards.", nil)
	o.hitRate = r.Gauge("gcplus_hit_rate",
		"Mean per-shard fraction of measured queries answered with zero sub-iso tests.", nil)
	o.validityRatio = r.Gauge("gcplus_cache_validity_ratio",
		"Mean per-shard fraction of (entry, live graph) validity bits currently set.", nil)
	o.cacheEntries = r.Gauge("gcplus_cache_entries", "Admitted cache entries across shards.", nil)
	o.cacheWindow = r.Gauge("gcplus_cache_window", "Admission-window entries across shards.", nil)
	o.cacheCapacity = r.Gauge("gcplus_cache_capacity", "Configured cache capacity across shards.", nil)
	o.repairPending = r.Gauge("gcplus_repair_pending",
		"Invalidated (entry, graph) pairs queued for background repair.", nil)
	o.repairedBits = r.Counter("gcplus_repaired_bits_total",
		"Validity bits restored by the background repair pipeline.", nil)
	o.repairDropped = r.Counter("gcplus_repair_dropped_total",
		"Invalidated pairs shed on a full repair queue (they stay invalid).", nil)
	o.slowQueries = r.Counter("gcplus_slow_queries_total",
		"Queries captured by the slow-query log (0 when disabled).", nil)
	o.uptime = r.Gauge("gcplus_uptime_seconds", "Seconds since this process built the server.", nil)
	o.walBytes = r.Gauge("gcplus_wal_bytes", "Current WAL segment bytes across shards.", nil)
	o.walAppends = r.Counter("gcplus_wal_appends_total", "WAL append attempts across shards.", nil)
	o.walAppendErrs = r.Counter("gcplus_wal_append_errors_total", "Failed WAL appends across shards.", nil)
	o.snapshotsWritten = r.Counter("gcplus_snapshots_written_total",
		"Snapshot generations written by this process.", nil)
	o.lastSnapEpoch = r.Gauge("gcplus_last_snapshot_epoch",
		"Epoch of the newest durable snapshot generation.", nil)
	o.planCacheHits = r.Counter("gcplus_plan_cache_hits_total",
		"Queries that reused a cached compiled plan, across shards.", nil)
	o.planCacheMisses = r.Counter("gcplus_plan_cache_misses_total",
		"Queries that compiled a fresh plan, across shards.", nil)

	o.degradeLevel = r.Gauge("gcplus_degradation_level",
		"Active degradation rung (0 none, 1 capped-verify, 2 cache-bypass).", nil)
	o.degradedSeconds = r.Gauge("gcplus_degraded_seconds_total",
		"Total wall seconds spent at a degradation level above none.", nil)
	o.shedQueries = r.Counter("gcplus_shed_total",
		"Requests fast-failed by admission control.", obs.Labels{"kind": "query"})
	o.shedUpdates = r.Counter("gcplus_shed_total",
		"Requests fast-failed by admission control.", obs.Labels{"kind": "update"})
	o.durableEpoch = r.Gauge("gcplus_durable_epoch",
		"Newest epoch the server can currently prove durable (0 without persistence).", nil)
	o.walVolatile = r.Gauge("gcplus_wal_volatile_shards",
		"Shards whose WAL has an open durability gap awaiting snapshot rotation.", nil)
	o.deadlineStage = make(map[string]*obs.Counter)
	for _, stage := range []string{"queue", "sync", "hit", "verify", "wait", "update", "other"} {
		o.deadlineStage[stage] = r.Counter("gcplus_deadline_exceeded_total",
			"Requests that expired their deadline, by the stage they gave up in.",
			obs.Labels{"stage": stage})
	}

	o.transportReqs = make(map[string]*obs.Counter)
	for _, method := range []string{"query", "apply_op", "append_wal", "sync", "snapshot", "stats"} {
		o.transportReqs[method] = r.Counter("gcplus_transport_requests_total",
			"ShardClient requests dispatched by the router, by service method and transport.",
			obs.Labels{"method": method, "transport": s.transportKind})
	}

	n := len(s.hosts)
	o.shardRTT = make([]*obs.Histogram, n)
	o.shardQueries = make([]*obs.Counter, n)
	o.shardLiveGraphs = make([]*obs.Gauge, n)
	o.shardHitRate = make([]*obs.Gauge, n)
	o.shardValidity = make([]*obs.Gauge, n)
	o.shardQueueLen = make([]*obs.Gauge, n)
	o.shardRepairPending = make([]*obs.Gauge, n)
	o.shardRepairDropped = make([]*obs.Counter, n)
	o.shardWALBytes = make([]*obs.Gauge, n)
	for sid, h := range s.hosts {
		lbl := strconv.Itoa(sid)
		hists := h.Runtime().StageHists()
		for i, hist := range []*obs.Histogram{
			hists.Query, hists.Hit, hists.Verify, hists.VerifyCPU,
			hists.Overhead, hists.Consistency, hists.RepairVerify, hists.Plan,
		} {
			r.RegisterHistogram("gcplus_stage_duration_seconds",
				"Per-stage query processing latency, by shard and stage.",
				obs.Labels{"shard": lbl, "stage": stageHistNames[i]}, hist)
		}
		r.RegisterHistogram("gcplus_queue_wait_seconds",
			"Time jobs spend queued behind the shard owner goroutine.",
			obs.Labels{"shard": lbl}, h.QueueWaitHist())
		if s.walWanted() {
			r.RegisterHistogram("gcplus_wal_append_duration_seconds",
				"WAL batch append latency (encode + write + fsync).",
				obs.Labels{"shard": lbl}, h.WALAppendHist())
		}
		o.shardRTT[sid] = r.Histogram("gcplus_transport_rtt_seconds",
			"Router-observed round trip of query dispatches, by shard and transport.",
			obs.Labels{"shard": lbl, "transport": s.transportKind})
		o.shardQueries[sid] = r.Counter("gcplus_shard_queries_total",
			"Queries processed by the shard runtime.", obs.Labels{"shard": lbl})
		o.shardLiveGraphs[sid] = r.Gauge("gcplus_shard_live_graphs",
			"Live graphs in the shard partition.", obs.Labels{"shard": lbl})
		o.shardHitRate[sid] = r.Gauge("gcplus_shard_hit_rate",
			"Shard fraction of measured queries answered with zero sub-iso tests.",
			obs.Labels{"shard": lbl})
		o.shardValidity[sid] = r.Gauge("gcplus_shard_validity_ratio",
			"Shard fraction of validity bits currently set.", obs.Labels{"shard": lbl})
		o.shardQueueLen[sid] = r.Gauge("gcplus_shard_queue_len",
			"Shard job-queue depth at snapshot time.", obs.Labels{"shard": lbl})
		o.shardRepairPending[sid] = r.Gauge("gcplus_shard_repair_pending",
			"Shard repair-queue depth.", obs.Labels{"shard": lbl})
		o.shardRepairDropped[sid] = r.Counter("gcplus_shard_repair_dropped_total",
			"Shard invalidated pairs shed on a full repair queue.", obs.Labels{"shard": lbl})
		o.shardWALBytes[sid] = r.Gauge("gcplus_shard_wal_bytes",
			"Shard current WAL segment bytes.", obs.Labels{"shard": lbl})
	}
	if s.store != nil {
		s.snapHist = r.Histogram("gcplus_snapshot_duration_seconds",
			"Snapshot generation wall time, enqueue to durable.", nil)
	}
	s.obs = o
}

// mirror refreshes the snapshot-style instruments from an
// epoch-consistent Stats snapshot. Counter.Set is sound here because
// every mirrored source is monotone over the process lifetime.
func (o *serverObs) mirror(st *Stats) {
	o.queries.Set(st.Queries)
	o.epoch.Set(float64(st.Epoch))
	o.liveGraphs.Set(float64(st.LiveGraphs))
	o.hitRate.Set(st.HitRate)
	o.validityRatio.Set(st.ValidityRatio)
	o.repairPending.Set(float64(st.PendingRepairs))
	o.repairedBits.Set(st.RepairedBits)
	o.repairDropped.Set(st.RepairDropped)
	o.slowQueries.Set(st.SlowQueries)
	o.uptime.Set(st.UptimeSec)
	o.walBytes.Set(float64(st.WALBytes))
	o.walAppends.Set(st.WALAppends)
	o.walAppendErrs.Set(st.WALAppendErrors)
	o.snapshotsWritten.Set(st.SnapshotsWritten)
	o.lastSnapEpoch.Set(float64(st.LastSnapshotEpoch))
	o.planCacheHits.Set(st.PlanCacheHits)
	o.planCacheMisses.Set(st.PlanCacheMisses)
	o.degradeLevel.Set(float64(st.DegradationLevel))
	o.degradedSeconds.Set(st.DegradedSeconds)
	o.shedQueries.Set(st.ShedQueries)
	o.shedUpdates.Set(st.ShedUpdates)
	o.durableEpoch.Set(float64(st.DurableEpoch))
	o.walVolatile.Set(float64(st.WALVolatileShards))
	for stage, n := range st.deadlineByStage {
		if c := o.deadlineStage[stage]; c != nil {
			c.Set(n)
		}
	}
	var entries, window, capacity int
	for _, ss := range st.PerShard {
		if ss.Shard < 0 || ss.Shard >= len(o.shardQueries) {
			continue
		}
		entries += ss.Cache.Entries
		window += ss.Cache.Window
		capacity += ss.Cache.Capacity
		o.shardQueries[ss.Shard].Set(ss.Metrics.Queries)
		o.shardLiveGraphs[ss.Shard].Set(float64(ss.LiveGraphs))
		o.shardHitRate[ss.Shard].Set(ss.HitRate)
		o.shardValidity[ss.Shard].Set(ss.ValidityRatio)
		o.shardQueueLen[ss.Shard].Set(float64(ss.QueueLen))
		o.shardRepairPending[ss.Shard].Set(float64(ss.Cache.PendingRepairs))
		o.shardRepairDropped[ss.Shard].Set(ss.Cache.RepairDropped)
		o.shardWALBytes[ss.Shard].Set(float64(ss.WALBytes))
	}
	o.cacheEntries.Set(float64(entries))
	o.cacheWindow.Set(float64(window))
	o.cacheCapacity.Set(float64(capacity))
}
