package gcplus

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"time"

	"gcplus/internal/cache"
	"gcplus/internal/changeplan"
	"gcplus/internal/core"
	"gcplus/internal/dataset"
	"gcplus/internal/graph"
	"gcplus/internal/router"
	"gcplus/internal/subiso"
	"gcplus/internal/synthetic"
)

// Re-exported graph types: the full graph construction and codec API of
// internal/graph is part of the public surface.
type (
	// Graph is a labelled undirected graph (§3 of the paper).
	Graph = graph.Graph
	// Label is a vertex label.
	Label = graph.Label
	// GraphBuilder incrementally constructs a Graph.
	GraphBuilder = graph.Builder
	// Edge is an undirected edge with U < V.
	Edge = graph.Edge
)

// NewGraphBuilder returns an empty graph builder.
func NewGraphBuilder() *GraphBuilder { return graph.NewBuilder() }

// PathGraph, CycleGraph, StarGraph and CliqueGraph are convenience
// constructors for common query shapes.
func PathGraph(labels ...Label) *Graph     { return graph.Path(labels...) }
func CycleGraph(labels ...Label) *Graph    { return graph.Cycle(labels...) }
func StarGraph(c Label, l ...Label) *Graph { return graph.Star(c, l...) }
func CliqueGraph(labels ...Label) *Graph   { return graph.Clique(labels...) }

// ParseGraphs reads graphs in the line-oriented text format
// ("t <name>" / "v <id> <label>" / "e <u> <v>").
func ParseGraphs(r io.Reader) ([]*Graph, error) { return graph.Parse(r) }

// WriteGraphs writes graphs in the text format.
func WriteGraphs(w io.Writer, gs []*Graph) error { return graph.Write(w, gs) }

// Model selects the cache-consistency model.
type Model = cache.Model

const (
	// CON keeps the cache across dataset changes, refreshing validity
	// indicators (the paper's headline model).
	CON = cache.ModelCON
	// EVI evicts the whole cache on any dataset change.
	EVI = cache.ModelEVI
)

// Policy selects the cache-replacement policy.
type Policy = cache.Policy

const (
	// HD is the paper's hybrid default policy.
	HD = cache.PolicyHD
	// PIN scores entries by spared sub-iso tests.
	PIN = cache.PolicyPIN
	// PINC weighs spared tests by their estimated cost.
	PINC = cache.PolicyPINC
	// LRU and LFU are classic baselines.
	LRU = cache.PolicyLRU
	// LFU evicts the least frequently contributing entry.
	LFU = cache.PolicyLFU
)

// QueryStats instruments one query execution; see the field documentation
// in the core runtime.
type QueryStats = core.QueryStats

// Metrics aggregates per-query statistics over a System's lifetime.
type Metrics = core.Metrics

// Options configures a System. The zero value gives the paper's defaults
// — a CON cache of capacity 100 with a 20-query window and the HD
// replacement policy — with VF2+ as Method M.
type Options struct {
	// Method is the sub-iso verifier (Method M): "VF2", "VF2+" or "GQL",
	// fixed for the System's life as the paper's figures fix it per run.
	// Empty (the default) means VF2+. Every algorithm is exact, so the
	// choice never changes an answer, only its cost.
	Method string
	// Model is the consistency model (default CON).
	Model Model
	// Policy is the replacement policy (default HD).
	Policy Policy
	// CacheSize is the cache capacity in entries (default 100).
	CacheSize int
	// WindowSize is the admission window length (default 20).
	WindowSize int
	// DisableCache turns GC+ off entirely, leaving the raw Method M
	// (every live graph verified per query). Useful for baselines.
	DisableCache bool
	// VerifyParallelism bounds the intra-query verification worker pool:
	// after GC+ pruning, the surviving candidates are verified by up to
	// this many workers, each with its own compiled-matcher scratch.
	// 0 means GOMAXPROCS; 1 keeps verification sequential.
	VerifyParallelism int
}

// System is a GC+ instance: an evolving dataset plus the semantic cache
// and query runtime. Not safe for concurrent use.
type System struct {
	ds *dataset.Dataset
	rt *core.Runtime
}

// Open builds a System over the initial dataset graphs, which receive ids
// 0..len(initial)-1. The slice is not copied; treat the graphs as owned
// by the System afterwards.
func Open(initial []*Graph, opts Options) (*System, error) {
	coreOpts := core.Options{VerifyParallelism: opts.VerifyParallelism}
	if opts.Method != "" {
		algo, err := subiso.New(opts.Method)
		if err != nil {
			return nil, err
		}
		coreOpts.Algorithm = algo
	}
	ds := dataset.New(initial)
	if !opts.DisableCache {
		coreOpts.Cache = &cache.Config{
			Capacity:   opts.CacheSize,
			WindowSize: opts.WindowSize,
			Model:      opts.Model,
			Policy:     opts.Policy,
		}
	}
	rt, err := core.NewRuntime(ds, coreOpts)
	if err != nil {
		return nil, err
	}
	return &System{ds: ds, rt: rt}, nil
}

// Result is a query outcome.
type Result struct {
	res *core.Result
}

// IDs returns the answer set as ascending dataset graph ids.
func (r *Result) IDs() []int { return r.res.AnswerIDs() }

// Contains reports whether dataset graph id is in the answer set.
func (r *Result) Contains(id int) bool { return r.res.Answer.Get(id) }

// Len returns the answer set size.
func (r *Result) Len() int { return r.res.Answer.Count() }

// Stats returns the execution statistics of this query.
func (r *Result) Stats() QueryStats { return r.res.Stats }

// SubgraphQuery returns all live dataset graphs containing q.
func (s *System) SubgraphQuery(q *Graph) (*Result, error) {
	res, err := s.rt.SubgraphQuery(q)
	if err != nil {
		return nil, err
	}
	return &Result{res: res}, nil
}

// SupergraphQuery returns all live dataset graphs contained in q.
func (s *System) SupergraphQuery(q *Graph) (*Result, error) {
	res, err := s.rt.SupergraphQuery(q)
	if err != nil {
		return nil, err
	}
	return &Result{res: res}, nil
}

// AddGraph inserts a new dataset graph (ADD), returning its id.
func (s *System) AddGraph(g *Graph) (int, error) { return s.ds.Add(g) }

// DeleteGraph removes dataset graph id (DEL).
func (s *System) DeleteGraph(id int) error { return s.ds.Delete(id) }

// AddEdge adds edge {u,v} to dataset graph id (UA).
func (s *System) AddEdge(id, u, v int) error { return s.ds.UpdateAddEdge(id, u, v) }

// RemoveEdge removes edge {u,v} from dataset graph id (UR).
func (s *System) RemoveEdge(id, u, v int) error { return s.ds.UpdateRemoveEdge(id, u, v) }

// Graph returns the current version of dataset graph id (nil if deleted).
func (s *System) Graph(id int) *Graph { return s.ds.Graph(id) }

// GraphCount returns the number of live dataset graphs.
func (s *System) GraphCount() int { return s.ds.LiveCount() }

// LiveIDs returns the live dataset graph ids in ascending order.
func (s *System) LiveIDs() []int { return s.ds.LiveIDs() }

// CacheSize returns the number of admitted cache entries.
func (s *System) CacheSize() int { return s.rt.CacheSize() }

// Metrics returns a snapshot of the aggregated query statistics.
func (s *System) Metrics() Metrics { return s.rt.Metrics() }

// ResetMetrics clears the aggregates (e.g. after a warm-up phase) while
// keeping the cache contents.
func (s *System) ResetMetrics() { s.rt.ResetMeasurements() }

// String describes the system configuration.
func (s *System) String() string {
	return fmt.Sprintf("gcplus.System(%s, %d graphs)", s.rt, s.ds.LiveCount())
}

// CacheEntryInfo is a read-only snapshot of one cached query, exposing
// the consistency machinery for inspection (examples, debugging, tests).
type CacheEntryInfo struct {
	// Query is the cached query graph's name.
	Query string
	// Kind is "sub" or "super".
	Kind string
	// Answer holds the dataset graph ids of the cached answer snapshot.
	Answer []int
	// Valid holds the ids on which the snapshot is still valid (CGvalid).
	Valid []int
	// SparedTests is the entry's cumulative R statistic.
	SparedTests float64
}

// CacheEntries snapshots the cache contents (window first).
func (s *System) CacheEntries() []CacheEntryInfo {
	var out []CacheEntryInfo
	s.rt.ForEachCacheEntry(func(query string, kind string, answer, valid []int, spared float64) {
		out = append(out, CacheEntryInfo{Query: query, Kind: kind, Answer: answer, Valid: valid, SparedTests: spared})
	})
	return out
}

// ServeOptions configures a Server. The embedded Options configure each
// shard's runtime exactly like a single-threaded System, with one twist:
// a zero VerifyParallelism here means GOMAXPROCS divided by the shard
// count (min 1), so shard-level and intra-query fan-out together stay
// near the core count instead of oversubscribing it.
type ServeOptions struct {
	Options
	// Shards is the number of runtime shards; each owns a partition of
	// the dataset, its own GC+ cache and one worker goroutine
	// (default 4).
	Shards int
	// RepairParallelism bounds each shard's background repair worker:
	// validity bits cleared by CON validation are re-verified off the
	// query path and restored when the relation still holds, so
	// update-heavy traffic stops bleeding hit rate. 0 means 1 worker per
	// shard. Repair runs only for CON caches: EVI purges wholesale and
	// leaves nothing to repair.
	RepairParallelism int
	// DataDir enables the durability subsystem: update batches are
	// written to a per-shard WAL and each shard's dataset is snapshotted
	// periodically under this directory, so a restarted server comes
	// back with the dataset it was serving, at the last acknowledged
	// epoch. The cache is not persisted: it is derived state and
	// re-warms from queries. A boot that finds recoverable state in
	// DataDir ignores the initial graphs. Empty disables persistence.
	DataDir string
	// SnapshotEvery is the number of update batches between automatic
	// snapshots (0 = the serving layer's default).
	SnapshotEvery int
	// DisableWAL keeps periodic snapshots but skips the write-ahead
	// log: a crash loses the batches applied since the last snapshot.
	DisableWAL bool
	// NoSync skips the per-append WAL fsync (snapshots still fsync):
	// batches survive a process crash but not a machine crash.
	NoSync bool
	// SlowLogThreshold enables the slow-query log: queries whose wall
	// time reaches the threshold are captured (linking their retained
	// trace) into a bounded ring served at GET /debug/slowlog. Zero
	// disables capture.
	SlowLogThreshold time.Duration
	// SlowLogSize bounds the slow-query ring (0 = default of 128).
	SlowLogSize int
	// TraceSampleRate is the distributed-tracing head-sampling rate: the
	// fraction of healthy requests whose full span tree — router
	// admission, fan-out and merge plus every shard's queue/plan/
	// consistency/hit/verify subtree — is retained, served at
	// GET /debug/traces. 0 means the serving layer's default (0.01);
	// negative head-samples no healthy request. Anomalous requests (slow,
	// error, shed, deadline-exceeded, degraded) are retained regardless
	// of the rate, and POST /query?trace=1 always returns its own tree.
	TraceSampleRate float64
	// TraceStoreSize bounds the in-memory trace store's normal ring
	// (0 = default of 256); anomalous traces keep a reserved ring of a
	// quarter that size.
	TraceStoreSize int
	// ReadyMaxPendingRepairs is the readiness threshold for GET /readyz:
	// the endpoint reports 503 while the summed repair backlog exceeds
	// it. 0 means the default repair-queue capacity; negative means 0
	// (ready only with an empty backlog).
	ReadyMaxPendingRepairs int
	// QueryTimeout bounds each query's end-to-end latency: requests
	// that exceed it are cancelled at the next cooperative checkpoint
	// and fail with a deadline error (HTTP 504). Zero means no deadline
	// beyond whatever context the caller supplies.
	QueryTimeout time.Duration
	// UpdateTimeout bounds each update batch the same way (a batch that
	// already acquired the writer lock still applies atomically; the
	// deadline is checked before application begins).
	UpdateTimeout time.Duration
	// MaxInFlightQueries bounds concurrently admitted queries; excess
	// requests are shed immediately with an overload error (HTTP 429)
	// instead of queueing without bound. 0 means the serving layer's
	// default (64); negative disables admission control.
	MaxInFlightQueries int
	// MaxInFlightUpdates bounds concurrently admitted update batches
	// the same way (default 16).
	MaxInFlightUpdates int
	// WALPolicy selects how a WAL append failure that survives retries
	// is surfaced: WALPolicyFailUpdate (default) fails the update so
	// callers know durability was not achieved; WALPolicyDegradeToVolatile
	// acks the update and latches a volatile-WAL alarm instead. Either
	// way the shard stops claiming durability for new batches until a
	// snapshot rotation heals the gap.
	WALPolicy string
	// Transport selects how the router reaches its shard hosts:
	// TransportLocal (default) for direct in-process calls, or
	// TransportLoopback to run every shard behind a real TCP connection
	// on 127.0.0.1 — the cluster seed. Answers, epochs and durability
	// semantics are identical over both.
	Transport string
	// Logger receives structured lifecycle events (recovery, snapshots,
	// WAL failures, repair-queue pressure). Nil discards them.
	Logger *slog.Logger
}

// Shard transports for ServeOptions.Transport.
const (
	// TransportLocal reaches shard hosts by direct in-process calls.
	TransportLocal = router.TransportLocal
	// TransportLoopback reaches each shard host over its own TCP
	// connection on 127.0.0.1, exercising the full wire path.
	TransportLoopback = router.TransportLoopback
)

// WAL failure policies for ServeOptions.WALPolicy.
const (
	// WALPolicyFailUpdate surfaces a persistent WAL append failure to
	// the updating caller (the batch is applied in memory but reported
	// non-durable).
	WALPolicyFailUpdate = router.WALPolicyFailUpdate
	// WALPolicyDegradeToVolatile acks the update and raises an
	// edge-triggered volatile-WAL alarm instead of failing it.
	WALPolicyDegradeToVolatile = router.WALPolicyDegradeToVolatile
)

// IsOverload reports whether err is an admission-control load-shed
// error (HTTP 429 from the wire API); such requests were not executed
// and are safe to retry after a backoff.
func IsOverload(err error) bool { return router.IsOverload(err) }

// UpdateOp describes one dataset change operation for Server.Update; use
// NewAddOp, NewDeleteOp, NewAddEdgeOp and NewRemoveEdgeOp to build them.
type UpdateOp = changeplan.Op

// NewAddOp describes an ADD of g.
func NewAddOp(g *Graph) UpdateOp { return changeplan.AddOp(g) }

// NewDeleteOp describes a DEL of graph id.
func NewDeleteOp(id int) UpdateOp { return changeplan.DeleteOp(id) }

// NewAddEdgeOp describes a UA adding {u,v} to graph id.
func NewAddEdgeOp(id, u, v int) UpdateOp { return changeplan.AddEdgeOp(id, u, v) }

// NewRemoveEdgeOp describes a UR removing {u,v} from graph id.
func NewRemoveEdgeOp(id, u, v int) UpdateOp { return changeplan.RemoveEdgeOp(id, u, v) }

// ServerAnswer is a query outcome from a Server: the merged answer ids,
// the epoch (dataset version) the answer reflects, and aggregate stats.
type ServerAnswer = router.QueryResult

// ServerUpdateResult summarizes one update batch.
type ServerUpdateResult = router.UpdateResult

// ServerStats is the server-wide statistics snapshot.
type ServerStats = router.Stats

// Server is the concurrent, sharded GC+ front-end: queries fan out to N
// independent runtime shards in parallel while dataset updates flow
// through an epoch-sequenced single-writer path, so every query observes
// one consistent dataset version. All methods are safe for concurrent
// use; see internal/router for the architecture and the consistency
// argument.
type Server struct {
	srv *router.Server
}

// NewServer builds a concurrent Server over the initial dataset graphs,
// which receive global ids 0..len(initial)-1 and are partitioned
// round-robin across the shards.
func NewServer(initial []*Graph, opts ServeOptions) (*Server, error) {
	srvOpts := router.Options{
		Shards:            opts.Shards,
		Method:            opts.Method,
		DisableCache:      opts.DisableCache,
		VerifyParallelism: opts.VerifyParallelism,
		RepairParallelism: opts.RepairParallelism,
		DataDir:           opts.DataDir,
		SnapshotEvery:     opts.SnapshotEvery,
		DisableWAL:        opts.DisableWAL,
		NoSync:            opts.NoSync,
		SlowLogThreshold:  opts.SlowLogThreshold,
		SlowLogSize:       opts.SlowLogSize,
		TraceSampleRate:   opts.TraceSampleRate,
		TraceStoreSize:    opts.TraceStoreSize,

		ReadyMaxPendingRepairs: opts.ReadyMaxPendingRepairs,
		QueryTimeout:           opts.QueryTimeout,
		UpdateTimeout:          opts.UpdateTimeout,
		MaxInFlightQueries:     opts.MaxInFlightQueries,
		MaxInFlightUpdates:     opts.MaxInFlightUpdates,
		WALPolicy:              opts.WALPolicy,
		Transport:              opts.Transport,
		Logger:                 opts.Logger,
	}
	if !opts.DisableCache {
		srvOpts.Cache = &cache.Config{
			Capacity:   opts.CacheSize,
			WindowSize: opts.WindowSize,
			Model:      opts.Model,
			Policy:     opts.Policy,
		}
	}
	srv, err := router.New(initial, srvOpts)
	if err != nil {
		return nil, err
	}
	return &Server{srv: srv}, nil
}

// SubgraphQuery returns all live dataset graphs containing q.
func (s *Server) SubgraphQuery(q *Graph) (*ServerAnswer, error) {
	return s.srv.Query(context.Background(), cache.KindSub, q, 0)
}

// SupergraphQuery returns all live dataset graphs contained in q.
func (s *Server) SupergraphQuery(q *Graph) (*ServerAnswer, error) {
	return s.srv.Query(context.Background(), cache.KindSuper, q, 0)
}

// SubgraphQueryCtx is SubgraphQuery bounded by ctx: cancellation or an
// expired deadline aborts the query at its next cooperative checkpoint
// (on top of any ServeOptions.QueryTimeout).
func (s *Server) SubgraphQueryCtx(ctx context.Context, q *Graph) (*ServerAnswer, error) {
	return s.srv.Query(ctx, cache.KindSub, q, 0)
}

// SupergraphQueryCtx is SupergraphQuery bounded by ctx.
func (s *Server) SupergraphQueryCtx(ctx context.Context, q *Graph) (*ServerAnswer, error) {
	return s.srv.Query(ctx, cache.KindSuper, q, 0)
}

// SubgraphQueryLimit streams: it returns the limit smallest answer ids
// (an exact prefix of the full ascending answer set), stopping
// verification early once each shard has enough. The result's Truncated
// field reports whether answers were cut; truncated results are never
// admitted into the cache. limit <= 0 means no limit.
func (s *Server) SubgraphQueryLimit(ctx context.Context, q *Graph, limit int) (*ServerAnswer, error) {
	return s.srv.Query(ctx, cache.KindSub, q, limit)
}

// SupergraphQueryLimit is SubgraphQueryLimit for supergraph queries.
func (s *Server) SupergraphQueryLimit(ctx context.Context, q *Graph, limit int) (*ServerAnswer, error) {
	return s.srv.Query(ctx, cache.KindSuper, q, limit)
}

// UpdateCtx is Update bounded by ctx; a deadline that expires before the
// batch starts applying rejects the whole batch (nothing applied).
func (s *Server) UpdateCtx(ctx context.Context, ops []UpdateOp) (*ServerUpdateResult, error) {
	return s.srv.UpdateCtx(ctx, ops)
}

// Update applies a batch of dataset change operations atomically with
// respect to concurrent queries and advances the epoch once. With
// durability enabled, a non-nil error alongside a non-nil result means
// the batch WAS applied in memory but a WAL append failed (it may not
// survive a crash) — do not re-submit such a batch, the ops are already
// in effect.
func (s *Server) Update(ops []UpdateOp) (*ServerUpdateResult, error) {
	return s.srv.Update(ops)
}

// AddGraph inserts one dataset graph, returning its global id. Like
// Update, a durability failure returns the (valid, applied) id together
// with a non-nil error — retrying would insert the graph a second time
// under a new id.
func (s *Server) AddGraph(g *Graph) (int, error) {
	res, err := s.srv.Update([]UpdateOp{NewAddOp(g)})
	if res == nil {
		return 0, err
	}
	if res.Ops[0].Err != nil {
		return 0, res.Ops[0].Err
	}
	return res.Ops[0].ID, err
}

// Epoch returns the current dataset version (update batches applied).
func (s *Server) Epoch() uint64 { return s.srv.Epoch() }

// Stats snapshots server-wide and per-shard statistics.
func (s *Server) Stats() (*ServerStats, error) { return s.srv.Stats() }

// ServerSlowQuery is one captured slow-query log entry.
type ServerSlowQuery = router.SlowQuery

// SlowQueries returns the retained slow-query log entries, newest
// first (empty unless ServeOptions.SlowLogThreshold is set).
func (s *Server) SlowQueries() []ServerSlowQuery { return s.srv.SlowQueries() }

// Handler returns the HTTP API that cmd/gcserve serves: POST /query
// (with ?trace=1 for the query's span tree), POST /update, GET /stats,
// GET /metrics (Prometheus exposition, with exemplar trace ids on the
// latency histograms), GET /healthz, GET /readyz, GET /debug/slowlog
// and GET /debug/traces (retained distributed traces; fetch one span
// tree by id at /debug/traces/{id}).
func (s *Server) Handler() http.Handler { return s.srv.Handler() }

// Shards returns the number of runtime shards.
func (s *Server) Shards() int { return s.srv.Shards() }

// Snapshot forces a durable snapshot of the dataset (only meaningful
// with ServeOptions.DataDir; errors otherwise).
func (s *Server) Snapshot() error { return s.srv.Snapshot() }

// Recovered reports whether this server restarted from persisted state,
// with the number of live graphs recovered and the epoch recovery
// reached.
func (s *Server) Recovered() (graphs int, epoch uint64, ok bool) { return s.srv.Recovered() }

// Close shuts the server down gracefully — with persistence enabled, a
// final snapshot is flushed first; subsequent calls fail. The returned
// error reports a failed final flush (the previous snapshot generation
// and the WAL remain recoverable).
func (s *Server) Close() error { return s.srv.Close() }

// GenerateAIDSLike synthesizes an AIDS-calibrated dataset of n labelled
// graphs (see docs/paper.md for the substitution rationale). Deterministic
// in seed.
func GenerateAIDSLike(n int, seed int64) ([]*Graph, error) {
	cfg := synthetic.Default().WithGraphs(n)
	cfg.Seed = seed
	return synthetic.Generate(cfg)
}

// Version is the library version.
const Version = "1.0.0"
