// Package gcplus is a semantic graph cache for subgraph and supergraph
// pattern queries over evolving graph datasets — a from-scratch Go
// implementation of GraphCache+ (GC+) from "Ensuring Consistency in Graph
// Cache for Graph-Pattern Queries" (Wang, Ntarmos, Triantafillou,
// EDBT/ICDT Workshops 2017).
//
// # The problem
//
// A subgraph query g against a dataset D of labelled graphs asks for all
// G ∈ D with g ⊆ G (subgraph isomorphism, NP-complete); a supergraph
// query asks for all G ⊆ g. GC+ caches executed queries together with
// their answer sets and uses containment relations between a new query
// and cached ones to prune the candidate set before the expensive
// verification — while the dataset concurrently changes through graph
// additions (ADD), deletions (DEL) and per-edge updates (UA/UR).
//
// # Consistency models
//
// Two cache-consistency models are provided. EVI evicts the entire cache
// whenever the dataset changes. CON keeps the cache and tracks, per
// cached query and dataset graph, whether the cached result still holds
// (a CGvalid bitset refreshed from the dataset's update log); only
// still-valid facts participate in pruning, which the paper proves — and
// this package's tests check against ground truth — yields answers with
// no false positives and no false negatives.
//
// # Quick start
//
//	sys, err := gcplus.Open(initialGraphs, gcplus.Options{Method: "VF2"})
//	if err != nil { ... }
//	res, err := sys.SubgraphQuery(pattern)
//	// res.IDs() are the dataset graphs containing pattern.
//	id, _ := sys.AddGraph(g)             // dataset evolves...
//	_ = sys.RemoveEdge(id, 0, 1)
//	res2, err := sys.SubgraphQuery(pattern) // ...answers stay exact
//
// Three Method M verifiers are built in — VF2, VF2+ and GraphQL ("GQL")
// — all implemented in this module with no external dependencies. See
// the examples directory for runnable scenarios and cmd/gcbench for the
// harness regenerating the paper's evaluation figures.
//
// # Compiled verification
//
// The sub-iso tests that survive GC+ pruning run through a compiled
// matcher engine: the query is compiled once per verification loop
// (structural summary, neighbourhood profiles, and VF2's visit order
// and anchors) and each candidate test reuses pooled scratch, allocating
// nothing in steady state. A visit order that depends on the candidate
// (VF2+'s rarity order, and any order in a supergraph test) is built
// lazily, one depth at a time as the search first reaches it, so a
// test that rejects early never pays for the rest of the order. A
// depth's pattern-side checks are fixed when the depth is placed, and a
// component root is tried only on the target's vertices of its label.
// Every dataset graph carries a memoized structural summary (sorted
// label counts, degree sequence, per-vertex neighbour profiles)
// computed at insert/update time, making the per-candidate quick-reject
// a map-free slice comparison. The surviving candidates
// can additionally be verified by a bounded worker pool inside one
// query — Options.VerifyParallelism, default GOMAXPROCS for a System;
// a Server resolves a zero to GOMAXPROCS divided by the shard count
// (min 1) — with answers bit-identical to sequential verification
// (checked by a randomized -race stress test).
//
// # Concurrent serving
//
// A System is single-threaded by design; for serving concurrent traffic
// use a Server instead. NewServer partitions the dataset round-robin
// across N shards, each owning its own System-equivalent runtime and
// GC+ cache behind one worker goroutine; queries fan out to all shards
// in parallel and the per-shard answers are merged. Dataset updates flow
// through an epoch-sequenced single-writer path: a batch is applied
// atomically with respect to queries, and every answer reports the epoch
// (dataset version) it reflects — each query observes exactly the update
// batches with epoch ≤ its snapshot, never a torn state, so the paper's
// exactness guarantees carry over to concurrent serving per shard.
//
//	srv, err := gcplus.NewServer(initialGraphs, gcplus.ServeOptions{Shards: 8})
//	if err != nil { ... }
//	res, err := srv.SubgraphQuery(pattern)   // safe from any goroutine
//	_, err = srv.Update([]gcplus.UpdateOp{gcplus.NewAddOp(g), gcplus.NewDeleteOp(3)})
//	http.ListenAndServe(":8844", srv.Handler())  // the cmd/gcserve API
//
// Internally the Server is three layers: a router (placement, epoch
// sequencing, fan-out/merge), per-shard hosts (runtime + cache + WAL
// behind one worker goroutine), and a transport seam between them.
// ServeOptions.Transport selects it: TransportLocal (default) makes
// direct in-process calls; TransportLoopback puts every shard behind a
// real TCP connection on 127.0.0.1 speaking a binary wire protocol —
// answers, epochs and durability semantics are identical, and the wire
// path is the seed for multi-node clustering.
//
// cmd/gcserve wraps the Server in a standalone HTTP daemon (POST /query,
// POST /update, GET /stats, GET /metrics, GET /healthz, GET /readyz,
// GET /debug/slowlog; -transport selects the shard transport). Its
// throughput, latency percentiles, recovery time and per-layer costs are
// measured by the repository's one perf ledger: bash benchmark/run.sh
// (see benchmark/README.md).
//
// # Background cache repair
//
// CON validation only ever clears validity bits, so update-heavy
// traffic steadily erodes the cache's pruning power. Each Server shard
// runs a background repair worker: validity bits cleared by validation
// (Algorithm 2's sweep, which queues them by graph id, then entry ID)
// are re-verified off the query path with forked compiled matchers,
// and atomically restored when the
// relation still holds against the current graph version. Repair is
// coordinated with the single-writer update sequence — the capture and
// commit steps run on the shard's worker goroutine, and a commit is
// dropped if the graph changed mid-verification — so it never races an
// in-flight batch and answers remain bit-identical to the cache-
// disabled ground truth (enforced by the differential consistency
// oracle test in internal/core). ServeOptions.RepairParallelism bounds
// the per-shard verification fan-out; EVI and cache-disabled servers
// have nothing to repair and run no repair worker. Stats report
// validity_ratio, repaired_bits and pending_repairs per shard.
//
// # Hit discovery
//
// Hit discovery — finding the cached queries that contain a new query
// and those it contains — walks the cache's entries, as the paper's
// GC+sub/GC+super processors do over a 100-entry cache (§6, §7.1). Each
// same-kind entry is screened with the containment-monotone fingerprint
// of internal/feature, and only a passing direction gets a
// query-to-query sub-iso test, whose verdict the query's plan memoizes.
// A memoized relation graph lets a repeated (isomorphic) query replay a
// cached entry's hit classification with zero pairwise tests, and a
// fully valid exact repeat skips hit discovery altogether: its plan
// remembers the isomorphic entry and answers from it directly. A
// differential property test pins the classification to a
// prefilter-free reference kept in the test suite, so answers are
// bit-identical to testing every entry. QueryStats.HitCandidates and
// HitScanned — and the hit_candidates metric on serving stats — report
// the prefilter's selectivity.
//
// # Compiled query plans and streaming verification
//
// Every query executes under a compiled plan — there is no unplanned
// path. The plan holds the query's compiled artifacts (Method M
// matcher, both hit-discovery matchers, feature fingerprint, verdict
// memo) and is cached per runtime under an O(V+E) structural digest
// confirmed by an exact equality check, so a repeated query skips
// compilation entirely (256 plans per runtime;
// gcplus_plan_cache_hits_total counts the reuse). Options.Method names
// Method M — "VF2", "VF2+" or "GQL" — fixed for the System's life, as
// the paper's figures fix it per run; empty means VF2+. Queries and
// background repair verify with the same algorithm, and
// QueryStats.PlanAlgorithm reports it. All three are exact, so the
// choice affects cost, never answers. Server queries can
// additionally stream: SubgraphQueryLimit / SupergraphQueryLimit (HTTP:
// ?limit=N) verify in ascending-id order and return exactly the N
// smallest answer ids with a Truncated flag, leaving exact-answer mode
// and cache contents untouched — a truncated answer is never admitted
// to the cache. The differential oracle runs default, pinned and
// streaming runtimes against cache-disabled ground truth to pin
// bit-identical answers.
//
// # Durability and warm restart
//
// Dataset + WAL are durable; the cache re-warms. With
// ServeOptions.DataDir set, the Server appends every update batch to a
// per-shard write-ahead log (epoch-stamped, CRC-checked frames, fsynced
// before the batch is acknowledged) and snapshots each shard's dataset
// periodically and at graceful Close. A reboot on the same directory
// loads the newest complete snapshot generation and replays the WAL
// tail through the ordinary executor up to the newest batch durable on
// every shard (torn tails and half-acknowledged batches are truncated
// away). The cache is not persisted: it is derived state, since
// consistency is defined against the dataset and Method M can recompute
// any cached answer, so every shard restarts with an empty cache and
// re-warms from the queries it serves. Answers are bit-identical to a
// cold rebuild from the first post-restart query — the kill-point and
// warm-restart differential tests pin it, and the ledger's recovery_s
// metric times the restart.
//
// # Observability
//
// Every query stage records into log-bucketed latency histograms
// (internal/obs: O(1) lock-free observe, exact-bound percentiles,
// ≤12.5% bucket width) alongside the Welford aggregates, per shard.
// A Server exposes them — together with cache validity, repair
// backlog, WAL and snapshot counters — as Prometheus text exposition
// at GET /metrics (gcplus_stage_duration_seconds{shard,stage},
// gcplus_queue_wait_seconds, gcplus_queries_total, ...); the
// histogram totals are pinned to Metrics.Queries by tests.
// POST /query?trace=1 returns the query's span tree inline; queries
// crossing ServeOptions.SlowLogThreshold are captured into a bounded
// ring served at GET /debug/slowlog, each linking its retained trace.
// GET /healthz and GET /readyz are the liveness and readiness probes
// (readiness is gated on the repair backlog via
// ServeOptions.ReadyMaxPendingRepairs), ServeOptions.Logger receives
// structured lifecycle events (log/slog), and cmd/gcserve's
// -pprof-addr serves net/http/pprof on a side listener.
//
// Every request has a distributed trace (internal/trace, a
// dependency-free span model) with one producer, the router: it opens
// the root span, times admission/fan-out/merge, and builds each shard's
// queue/plan/consistency/hit/verify subtree from the stats the shard's
// reply carries over any transport, annotated with every cache decision
// (hit class, plan verdict, degradation rung). Only a sampled query's
// trace id crosses the wire, for the shard's histogram exemplars.
// ServeOptions.TraceSampleRate head-samples healthy requests (default
// 1%) and tail retention always keeps anomalous traces — slow, error,
// shed, deadline-exceeded, degraded — in a bounded store served at
// GET /debug/traces (list) and GET /debug/traces/{id} (span tree).
// Histogram buckets on /metrics cite exemplar trace ids linking latency
// outliers to their traces.
package gcplus
