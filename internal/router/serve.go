// Package router is the coordinator of GC+'s three-layer serving stack:
//
//	router  — placement, epoch sequencing, fan-out + sorted merge,
//	          admission control, degradation ladder, persistence
//	          coordination (this package)
//	transport — the ShardClient seam the router talks through: "local"
//	          (direct in-process calls) or "loopback" (real TCP framing)
//	shardhost — one Host per shard, owning that partition's dataset,
//	          runtime, GC+ cache and durability state
//
// # Architecture
//
// A core.Runtime is deliberately single-threaded (the paper's evaluation
// harness is single-streamed), so the available concurrency is shard-level
// parallelism. The Server partitions the dataset round-robin over N
// shard hosts; each host runs one worker goroutine — collectively the
// query worker pool — that owns the shard's dataset, runtime and cache
// exclusively and drains a FIFO job queue. A query fans out one request
// per shard through the transport clients, the shards prune and verify
// their partitions in parallel (per-shard CON validation runs exactly as
// in §5.2 against the shard's own update log), and the router unions the
// per-shard answers, already translated to global ids host-side.
//
// The router addresses shards only through the transport.ShardClient
// interface — it cannot tell an in-process Host from one behind a
// socket. The consistency protocol below survives that indirection
// because every ShardClient method fixes its shard's call order
// synchronously, at call time, before returning.
//
// # Epoch-sequenced consistency
//
// Dataset changes flow through a single-writer update path. An update
// batch acquires the sequence lock exclusively, routes each operation to
// the shard owning its target graph, enqueues the operations on the shard
// workers, and advances the epoch — execution and result collection
// happen after the lock is released. Queries likewise acquire the
// sequence lock shared only while *enqueueing* their per-shard jobs
// (snapshotting the epoch at that instant), not while executing. Because
// enqueues are atomic under the lock and each shard worker drains its
// queue in FIFO order, every shard observes a given query strictly before
// or strictly after a given update batch — the same side on every shard.
// Hence each query sees one consistent dataset version: exactly the
// batches with epoch ≤ its snapshot, never a torn mid-batch state, and
// the per-shard GC+ caches reconcile (Algorithms 1+2, or an EVI purge)
// against precisely that version before pruning. Theorems 3 and 6 then
// apply per shard, and the union over a partition preserves them, so
// concurrent serving keeps the paper's no-false-positives /
// no-false-negatives guarantee.
package router

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"gcplus/internal/cache"
	"gcplus/internal/changeplan"
	"gcplus/internal/core"
	"gcplus/internal/dataset"
	"gcplus/internal/graph"
	"gcplus/internal/obs"
	"gcplus/internal/persist"
	"gcplus/internal/shardhost"
	"gcplus/internal/subiso"
	"gcplus/internal/trace"
	"gcplus/internal/transport"
)

// ErrClosed is returned by operations on a closed Server. It is the
// transport layer's sentinel so the same closed-server failure is
// recognized whether it was raised router-side or decoded off the wire.
var ErrClosed = transport.ErrClosed

// Transport names accepted by Options.Transport.
const (
	// TransportLocal reaches shard hosts by direct in-process calls —
	// the zero-overhead default.
	TransportLocal = "local"
	// TransportLoopback runs every shard host behind a real TCP
	// connection on the loopback interface, in the same process: the
	// full wire path (framing, codecs, cancel frames, piggybacked
	// pressure signals) with none of the deployment. It exists to
	// rehearse the cluster seam and must be answer-identical to local.
	TransportLoopback = "loopback"
)

// validTransport reports whether t names a supported transport ("" means
// TransportLocal).
func validTransport(t string) bool {
	return t == "" || t == TransportLocal || t == TransportLoopback
}

// Options configures a Server. The zero value gives 4 shards with the
// paper-default CON cache (capacity 100, window 20, HD policy) and
// VF2+ as Method M.
type Options struct {
	// Shards is the number of runtime shards (default 4).
	Shards int
	// Method is Method M's sub-iso verifier on every shard: "VF2",
	// "VF2+" or "GQL". Empty (the default) means VF2+. Every algorithm
	// is exact, so the choice never changes an answer.
	Method string
	// Cache configures each shard's GC+ cache — capacity, window,
	// model, policy, repair queue. Nil means the default CON cache; use
	// DisableCache for the raw Method M baseline.
	Cache *cache.Config
	// DisableCache turns GC+ caching off on every shard.
	DisableCache bool
	// VerifyParallelism bounds each shard runtime's intra-query
	// verification worker pool (1 = sequential). 0 picks an
	// oversubscription-free default: GOMAXPROCS divided by the shard
	// count (min 1), so shard fan-out times intra-query fan-out stays
	// near the core count. Raise it explicitly for few-shard,
	// latency-sensitive deployments where single queries face large
	// candidate sets.
	VerifyParallelism int
	// RepairParallelism bounds each shard's background repair worker:
	// validity bits cleared by CON validation are re-verified off the
	// query path by up to this many goroutines and restored when the
	// verified relation still holds. 0 picks the default of 1 worker per
	// shard. Repair applies only to CON caches (see repairEnabled).
	RepairParallelism int
	// DataDir enables the durability subsystem (internal/persist): a
	// per-shard write-ahead log of update batches plus periodic
	// snapshots of each shard's dataset under this directory. A boot
	// that finds recoverable state there restarts from it — the initial
	// graph slice is ignored in that case — loading the newest complete
	// snapshot generation and replaying the WAL tail; the caches start
	// empty and re-warm. Empty (the default) disables persistence
	// entirely.
	DataDir string
	// SnapshotEvery is the number of update batches between automatic
	// snapshot generations (default DefaultSnapshotEvery). Snapshots
	// also happen at boot (anchoring the WAL chain) and at graceful
	// Close. Only meaningful with DataDir.
	SnapshotEvery int
	// DisableWAL turns the write-ahead log off, leaving snapshots as
	// the only durability mechanism: a crash loses every batch applied
	// since the last snapshot generation. Only meaningful with DataDir.
	DisableWAL bool
	// NoSync skips the fsync after each WAL append (snapshot files are
	// always fsynced). Batches survive a process crash but not a
	// machine crash — the usual group-durability trade for tests and
	// benchmarks.
	NoSync bool
	// SlowLogThreshold enables the slow-query log: every query whose
	// end-to-end wall time meets or exceeds it is captured — with the
	// query text and the id of its retained trace — into a bounded
	// in-memory ring readable via SlowQueries / GET /debug/slowlog.
	// Zero (the default) disables capture.
	SlowLogThreshold time.Duration
	// SlowLogSize bounds the slow-query ring (default 128). Older
	// entries are overwritten; the drop count is retained.
	SlowLogSize int
	// TraceSampleRate is the distributed-tracing head-sampling rate: the
	// fraction of healthy requests whose trace — router stages plus one
	// shard subtree per shard, built from the reply stats — is retained.
	// 0 means DefaultTraceSampleRate; negative head-samples no healthy
	// request. Independent of the rate, every anomalous request — slow,
	// error, shed, deadline-exceeded, degraded — is retained (tail-based
	// retention), so the pathological cases are always inspectable at
	// GET /debug/traces, and POST /query?trace=1 always returns its own.
	TraceSampleRate float64
	// TraceStoreSize bounds the in-memory trace store's normal ring
	// (default trace.DefaultStoreSize); anomalous traces rotate through
	// a reserved quarter-size ring normal traffic cannot evict.
	TraceStoreSize int
	// ReadyMaxPendingRepairs is the readiness threshold: GET /readyz
	// reports ready only while the summed per-shard repair backlog is at
	// or below it. 0 means the default (DefaultRepairQueue); negative
	// means "any backlog marks the server unready".
	ReadyMaxPendingRepairs int
	// Logger receives structured lifecycle events (recovery summaries,
	// snapshot generations, WAL errors, repair-queue drops, shutdown).
	// Nil discards them.
	Logger *slog.Logger

	// QueryTimeout bounds each query end to end: queue wait, cache sync,
	// hit discovery and verification all count against it. An expired
	// query returns a core.CancelError (HTTP 504) and its shard jobs
	// abort at their next cooperative checkpoint. 0 disables the
	// per-request deadline (callers can still pass their own context).
	QueryTimeout time.Duration
	// UpdateTimeout bounds the admission of an update batch: the
	// deadline is checked up to the moment the batch is enqueued, after
	// which it runs to completion (batches are atomic — a half-applied
	// batch would tear the epoch). 0 disables it.
	UpdateTimeout time.Duration
	// MaxInFlightQueries bounds concurrently admitted queries. Beyond
	// the bound new queries fast-fail with OverloadError (HTTP 429 +
	// Retry-After) instead of convoying on the sequence lock. 0 means
	// DefaultMaxInFlightQueries; negative disables admission control.
	MaxInFlightQueries int
	// MaxInFlightUpdates bounds concurrently admitted update batches
	// the same way. 0 means DefaultMaxInFlightUpdates; negative
	// disables the bound.
	MaxInFlightUpdates int
	// WALPolicy selects what a WAL append failure (after the bounded
	// in-place retries) means: WALPolicyFailUpdate (default) or
	// WALPolicyDegradeToVolatile. See the constants for the contract.
	WALPolicy string
	// Transport selects how the router reaches its shard hosts:
	// TransportLocal (default) or TransportLoopback. Answers, epochs and
	// stats are bit-identical across transports; only the seam differs.
	Transport string
	// Faults installs the chaos harness's fault-injection hooks (nil in
	// production). Deliberately not surfaced on the public facade.
	Faults *FaultInjection

	// pressureInterval overrides the controller's evaluation cadence in
	// in-package tests: 0 means defaultPressureInterval, negative means
	// "create the controller but do not start its ticker" so tests can
	// drive evaluate() deterministically.
	pressureInterval time.Duration
}

// Admission-control defaults. The query bound is sized well above the
// shard fan-out's useful concurrency (a query occupies every shard, so
// beyond a few dozen in flight extra admissions only deepen queue wait)
// and above typical benchmark client counts, so fault-free throughput
// is unaffected; the update bound is tighter because updates serialize
// on the single-writer path anyway.
const (
	DefaultMaxInFlightQueries = 64
	DefaultMaxInFlightUpdates = 16
)

// resolveLimit maps an Options in-flight bound to the semaphore size:
// 0 picks the default, negative disables (returns 0).
func resolveLimit(v, def int) int {
	switch {
	case v == 0:
		return def
	case v < 0:
		return 0
	}
	return v
}

// DefaultSnapshotEvery is the default number of update batches between
// automatic snapshot generations.
const DefaultSnapshotEvery = 256

func (o Options) withDefaults() Options {
	if o.Shards <= 0 {
		o.Shards = 4
	}
	if o.Cache == nil && !o.DisableCache {
		o.Cache = &cache.Config{}
	}
	o.VerifyParallelism = ResolveVerifyParallelism(o.VerifyParallelism, o.Shards)
	o.RepairParallelism = ResolveRepairParallelism(o.RepairParallelism, o.repairEnabled())
	if o.DataDir != "" && o.SnapshotEvery <= 0 {
		o.SnapshotEvery = DefaultSnapshotEvery
	}
	if o.RepairParallelism > 0 && o.Cache.RepairQueue == 0 {
		// Copy before defaulting: the Config pointer belongs to the
		// caller and must not be mutated as a side effect.
		cfg := *o.Cache
		cfg.RepairQueue = DefaultRepairQueue
		o.Cache = &cfg
	}
	if o.SlowLogSize <= 0 {
		o.SlowLogSize = DefaultSlowLogSize
	}
	switch {
	case o.ReadyMaxPendingRepairs == 0:
		o.ReadyMaxPendingRepairs = DefaultRepairQueue
	case o.ReadyMaxPendingRepairs < 0:
		o.ReadyMaxPendingRepairs = 0
	}
	if o.Logger == nil {
		o.Logger = slog.New(slog.DiscardHandler)
	}
	if o.WALPolicy == "" {
		o.WALPolicy = WALPolicyFailUpdate
	}
	return o
}

// repairEnabled reports whether the configuration supports background
// repair: a CON cache (EVI purges wholesale — there is nothing to
// repair).
func (o Options) repairEnabled() bool {
	return !o.DisableCache && o.Cache != nil && o.Cache.Model == cache.ModelCON
}

// DefaultRepairQueue is the per-shard bound on queued invalidated
// (entry, graph) pairs awaiting repair. Beyond it the validator drops
// pairs (they simply stay invalid), keeping repair memory bounded under
// pathological churn.
const DefaultRepairQueue = 4096

// ResolveRepairParallelism returns the per-shard repair worker count a
// Server with the given settings runs with: 0 when repair is disabled,
// otherwise the configured value with a floor of 1. Exported so
// harnesses recording benchmark configurations can log the effective
// value.
func ResolveRepairParallelism(repairPar int, enabled bool) int {
	if !enabled {
		return 0
	}
	if repairPar < 1 {
		return 1
	}
	return repairPar
}

// ResolveVerifyParallelism returns the per-shard verification worker
// count a Server with the given settings runs with: non-positive values
// resolve to GOMAXPROCS divided by the shard count (min 1). Exported so
// harnesses recording benchmark configurations can log the effective
// value instead of the machine-dependent zero.
func ResolveVerifyParallelism(verifyPar, shards int) int {
	if verifyPar > 0 {
		return verifyPar
	}
	if shards < 1 {
		shards = 1
	}
	if vp := runtime.GOMAXPROCS(0) / shards; vp > 1 {
		return vp
	}
	return 1
}

// location addresses one global graph id inside the shard space.
type location struct {
	shard int32
	local int32
}

// Server is the sharded front-end. All exported methods are safe for
// concurrent use.
type Server struct {
	opts Options
	// hosts are the shard owners; the router touches them directly only
	// at boot (construction, recovery, Start) and for the in-process
	// durability seam (NoteSnapshotDurable). Everything on the serving
	// path goes through clients.
	hosts   []*shardhost.Host
	clients []transport.ShardClient
	// loopback is the in-process wire server all clients dial when the
	// loopback transport is selected (nil for local).
	loopback      *transport.LoopbackServer
	transportKind string

	// seqMu orders job enqueues: queries enqueue under RLock, update
	// batches apply under Lock. This is the epoch sequencer — see the
	// package comment for why enqueue-order atomicity plus per-shard FIFO
	// queues yield per-query dataset-version consistency.
	seqMu  sync.RWMutex
	epoch  uint64
	closed bool

	// writerMu serializes the single-writer update path end to end
	// (target resolution + application + id-map maintenance).
	writerMu sync.Mutex
	// loc maps global graph id -> owning shard and shard-local id; only
	// the update path reads or grows it.
	loc []location
	// nextAdd round-robins ADD placement across shards. Invariant:
	// nextAdd == len(loc), which is what makes ADD placement replayable
	// after a restart.
	nextAdd int
	// shardNextLocal is the next local id each shard will assign to an
	// ADD — placement bookkeeping, maintained writer-side at enqueue
	// time so later ops in a batch can target a graph an earlier op is
	// about to add (the host's own map only grows when the job runs).
	shardNextLocal []int

	// Durability state (nil store when persistence is off).
	store   *persist.Store
	started time.Time
	// snapMu serializes snapshot generations; lock order is snapMu
	// before seqMu (automatic triggers inside Update use TryLock, so
	// they never block the writer path on an in-flight snapshot).
	snapMu            sync.Mutex
	lastSnapshotEpoch atomic.Uint64
	snapshotsWritten  atomic.Int64
	// recoveredGraphs/recoveredEpoch describe the recovery this server
	// booted from (zero on a cold boot); written once in New.
	recoveredGraphs int
	recoveredEpoch  uint64
	recovered       bool

	// Observability (built once in New, before the shards start).
	log      *slog.Logger
	obs      *serverObs
	slow     *slowLog
	snapHist *obs.Histogram // snapshot-generation wall time (nil without persistence)
	// Tracing state. cacheOn mirrors !DisableCache for shard-span
	// synthesis; traceRate is the resolved head-sampling rate for
	// /debug/traces.
	traces    *trace.Store
	sampler   *trace.Sampler
	cacheOn   bool
	traceRate float64

	// Resilience state. The semaphores are nil when the corresponding
	// admission bound is disabled.
	querySem                 chan struct{}
	updateSem                chan struct{}
	press                    *pressure
	now                      func() time.Time // time.Now, or the clock-skew hook
	shedQueries, shedUpdates atomic.Int64
	deadlines                deadlineCounters
	// snapRetry tracks the snapshot-retry backoff: pending latches while
	// a retry is scheduled, failures counts consecutive failed
	// generations (doubling the delay) and resets on success.
	snapRetryPending atomic.Bool
	snapFailures     atomic.Int64
}

// deadlineCounters tallies deadline expiries by the stage the request
// was in when it gave up, mirrored to
// gcplus_deadline_exceeded_total{stage}. "wait" is the front-end
// abandoning still-running shard jobs; "queue" is a shard job finding
// the deadline already expired before it started; the rest are the
// runtime's cooperative checkpoint stages.
type deadlineCounters struct {
	queue, syncStage, hit, verify, wait, update, other atomic.Int64
}

func (d *deadlineCounters) bucket(stage string) *atomic.Int64 {
	switch stage {
	case "queue":
		return &d.queue
	case "sync":
		return &d.syncStage
	case "hit":
		return &d.hit
	case "verify":
		return &d.verify
	case "wait":
		return &d.wait
	case "update":
		return &d.update
	}
	return &d.other
}

func (d *deadlineCounters) total() int64 {
	return d.queue.Load() + d.syncStage.Load() + d.hit.Load() +
		d.verify.Load() + d.wait.Load() + d.update.Load() + d.other.Load()
}

// noteDeadline records a deadline expiry if err is one (first-error-wins
// means each expired request is counted exactly once).
func (s *Server) noteDeadline(err error) {
	var ce *core.CancelError
	if errors.As(err, &ce) {
		s.deadlines.bucket(ce.Stage).Add(1)
	}
}

// buildVersion is the module version baked into the binary, surfaced on
// /stats so restarted-vs-warm instances are distinguishable next to a
// deploy log.
var buildVersion = func() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		v := bi.Main.Version
		var rev string
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				rev = s.Value
			}
		}
		if len(rev) > 12 {
			rev = rev[:12]
		}
		switch {
		case v != "" && v != "(devel)":
			return v
		case rev != "":
			return "devel+" + rev
		}
	}
	return "unknown"
}()

// New builds a Server over the initial dataset graphs, which receive
// global ids 0..len(initial)-1 and are partitioned round-robin across the
// shards. The graphs are treated as immutable and owned by the Server.
//
// With Options.DataDir set, New first looks for recoverable state: if a
// snapshot generation exists there, the server restarts from it — the
// initial slice is ignored — replaying the WAL tail, with every shard's
// cache empty (see Recovered).
// On a cold boot with persistence, New writes the initial snapshot
// generation (anchoring the WAL chain) before returning.
func New(initial []*graph.Graph, opts Options) (*Server, error) {
	opts = opts.withDefaults()
	if !validWALPolicy(opts.WALPolicy) {
		return nil, fmt.Errorf("serve: unknown WAL policy %q (want %q or %q)",
			opts.WALPolicy, WALPolicyFailUpdate, WALPolicyDegradeToVolatile)
	}
	if !validTransport(opts.Transport) {
		return nil, fmt.Errorf("serve: unknown transport %q (want %q or %q)",
			opts.Transport, TransportLocal, TransportLoopback)
	}
	s := &Server{opts: opts, log: opts.Logger, now: time.Now}
	s.transportKind = opts.Transport
	if s.transportKind == "" {
		s.transportKind = TransportLocal
	}
	if opts.Faults != nil && opts.Faults.Now != nil {
		s.now = opts.Faults.Now
	}
	s.started = s.now()
	if n := resolveLimit(opts.MaxInFlightQueries, DefaultMaxInFlightQueries); n > 0 {
		s.querySem = make(chan struct{}, n)
	}
	if n := resolveLimit(opts.MaxInFlightUpdates, DefaultMaxInFlightUpdates); n > 0 {
		s.updateSem = make(chan struct{}, n)
	}
	s.slow = newSlowLog(opts.SlowLogSize)
	s.cacheOn = !opts.DisableCache
	rate := opts.TraceSampleRate
	if rate == 0 {
		rate = DefaultTraceSampleRate
	}
	s.traceRate = max(rate, 0) // a negative rate head-samples no request
	s.sampler = trace.NewSampler(s.traceRate)
	s.traces = trace.NewStore(opts.TraceStoreSize)
	if opts.DataDir != "" {
		fsys := persist.OSFS
		if opts.Faults != nil && opts.Faults.FS != nil {
			fsys = opts.Faults.FS
		}
		store, err := persist.OpenStoreFS(fsys, opts.DataDir, opts.Shards)
		if err != nil {
			return nil, err
		}
		s.store = store
	}
	// Boot failures past this point must release the data directory's
	// lock (and any opened files and sockets) before reporting. Hosts
	// are not started yet on any failing path, so no goroutines to stop.
	fail := func(err error) (*Server, error) {
		for _, c := range s.clients {
			if c != nil {
				c.Close()
			}
		}
		if s.loopback != nil {
			s.loopback.Close()
		}
		for _, h := range s.hosts {
			if h != nil {
				h.CloseWAL(false)
			}
		}
		if s.store != nil {
			s.store.Close()
		}
		return nil, err
	}
	if s.store != nil && s.store.HasState() {
		if err := s.recover(); err != nil {
			return fail(fmt.Errorf("serve: recovery: %w", err))
		}
	} else if err := s.buildCold(initial); err != nil {
		return fail(err)
	}
	s.press = newPressure(s)
	if err := s.buildClients(); err != nil {
		return fail(fmt.Errorf("serve: %s transport: %w", s.transportKind, err))
	}
	s.initObs()
	for _, h := range s.hosts {
		h.SetLogger(s.log)
		h.SetClock(s.now)
		if opts.Faults != nil {
			h.SetStall(opts.Faults.ShardStall)
		}
		h.Start(opts.RepairParallelism)
	}
	if opts.pressureInterval >= 0 {
		iv := opts.pressureInterval
		if iv == 0 {
			iv = defaultPressureInterval
		}
		s.press.start(iv)
	}
	if s.recovered {
		s.log.Info("recovered from data directory; caches start empty",
			"epoch", s.recoveredEpoch, "live_graphs", s.recoveredGraphs,
			"shards", len(s.hosts), "transport", s.transportKind)
	} else {
		s.log.Info("cold boot", "shards", len(s.hosts), "graphs", len(s.loc),
			"persist", s.store != nil, "transport", s.transportKind)
	}
	if !s.recovered && s.store != nil {
		if err := s.Snapshot(); err != nil {
			s.closeImpl(false)
			return nil, fmt.Errorf("serve: initial snapshot: %w", err)
		}
	}
	return s, nil
}

// buildCold constructs the shard hosts from the initial dataset (no
// goroutines are started; error paths simply abandon the structures).
func (s *Server) buildCold(initial []*graph.Graph) error {
	opts := s.opts
	s.hosts = make([]*shardhost.Host, opts.Shards)
	s.shardNextLocal = make([]int, opts.Shards)
	s.loc = make([]location, len(initial))
	s.nextAdd = len(initial)
	parts := make([][]*graph.Graph, opts.Shards)
	gids := make([][]int, opts.Shards)
	for gid, g := range initial {
		if g == nil {
			return fmt.Errorf("serve: initial graph %d is nil", gid)
		}
		sid := gid % opts.Shards
		s.loc[gid] = location{shard: int32(sid), local: int32(len(parts[sid]))}
		parts[sid] = append(parts[sid], g)
		gids[sid] = append(gids[sid], gid)
	}
	for i := range s.hosts {
		coreOpts, err := s.shardCoreOptions()
		if err != nil {
			return err
		}
		h, err := shardhost.New(i, parts[i], gids[i], coreOpts, s.hostConfig())
		if err != nil {
			return err
		}
		s.hosts[i] = h
		s.shardNextLocal[i] = len(gids[i])
	}
	return nil
}

// hostConfig is the durability/policy configuration every shard host is
// built with. OnDurabilityGap closes the control loop: a host that
// latches a WAL durability gap asks the router for the healing snapshot
// rotation.
func (s *Server) hostConfig() shardhost.Config {
	return shardhost.Config{
		Store:           s.store,
		WAL:             s.walWanted(),
		NoSync:          s.opts.NoSync,
		WALPolicy:       s.opts.WALPolicy,
		FailUpdateOnGap: s.opts.WALPolicy == WALPolicyFailUpdate,
		OnDurabilityGap: s.scheduleSnapshotRetry,
	}
}

// buildClients wires one transport.ShardClient per shard host according
// to the selected transport. For loopback, every host is served behind
// one TCP listener and each client gets its own connection — the
// ShardClient ordering contract rides on that single ordered stream.
func (s *Server) buildClients() error {
	s.clients = make([]transport.ShardClient, len(s.hosts))
	if s.transportKind != TransportLoopback {
		for i, h := range s.hosts {
			s.clients[i] = transport.NewLocal(h)
		}
		return nil
	}
	lb, err := transport.ServeLoopback(s.hosts)
	if err != nil {
		return err
	}
	s.loopback = lb
	for i := range s.hosts {
		c, err := transport.DialLoopback(lb.Addr(), i)
		if err != nil {
			return err
		}
		s.clients[i] = c
	}
	return nil
}

// shardCoreOptions builds one shard runtime's options (each shard gets
// its own copy of the cache config). An empty Method leaves Algorithm
// nil, which the runtime resolves to VF2+.
func (s *Server) shardCoreOptions() (core.Options, error) {
	coreOpts := core.Options{VerifyParallelism: s.opts.VerifyParallelism}
	if s.opts.Method != "" {
		algo, err := subiso.New(s.opts.Method)
		if err != nil {
			return core.Options{}, err
		}
		coreOpts.Algorithm = algo
	}
	if !s.opts.DisableCache {
		cfg := *s.opts.Cache
		coreOpts.Cache = &cfg
	}
	return coreOpts, nil
}

// walWanted reports whether update batches should be logged.
func (s *Server) walWanted() bool { return s.store != nil && !s.opts.DisableWAL }

func (s *Server) stopHosts() {
	for _, h := range s.hosts {
		if h != nil {
			h.Stop()
		}
	}
}

// Close shuts the server down gracefully: a final snapshot generation is
// written (when persistence is on), shard job queues drain, and WAL
// segments are flushed and closed. Queries and updates issued after
// Close return ErrClosed. The returned error reports a failed final
// snapshot — the server is down either way, but the data directory then
// holds the previous generation plus the WAL instead of a fresh
// generation (with the WAL disabled that means batches since the last
// generation are lost; callers should surface it loudly).
func (s *Server) Close() error { return s.closeImpl(true) }

func (s *Server) closeImpl(flush bool) error {
	flush = flush && s.store != nil
	holdsSnapMu := false
	if s.store != nil {
		// Acquiring snapMu waits out any in-flight snapshot
		// generation's collector — even on the crash-shaped path, where
		// the collector's file writes and obsolete-chain cleanup must
		// not race a successor process that grabs the directory lock
		// the moment we release it. Lock order: snapMu before seqMu.
		s.snapMu.Lock()
		holdsSnapMu = true
	}
	s.seqMu.Lock()
	if s.closed {
		s.seqMu.Unlock()
		if holdsSnapMu {
			s.snapMu.Unlock()
		}
		return nil
	}
	var snapDone <-chan error
	if flush {
		snapDone = s.enqueueSnapshotLocked(s.epoch) // releases snapMu when done
		holdsSnapMu = false
	}
	s.closed = true
	s.seqMu.Unlock()
	s.press.stop()
	var flushErr error
	if snapDone != nil {
		// On failure the previous generation plus the WAL chain remain
		// — still recoverable, but the caller must hear about it.
		flushErr = <-snapDone
	}
	s.stopHosts()
	for i, h := range s.hosts {
		// flush=false is crash-shaped: no final fsync — recovery must
		// cope with exactly what the kernel happened to have, like
		// after a real crash — and its close error is deliberately not
		// reported.
		if err := h.CloseWAL(flush); flush && err != nil && flushErr == nil {
			flushErr = fmt.Errorf("serve: closing shard %d WAL: %w", i, err)
		}
	}
	for _, c := range s.clients {
		c.Close()
	}
	if s.loopback != nil {
		s.loopback.Close()
	}
	if s.store != nil {
		s.store.Close()
	}
	if holdsSnapMu {
		s.snapMu.Unlock()
	}
	if flushErr != nil {
		s.log.Error("shutdown with failed final snapshot", "err", flushErr)
	} else {
		s.log.Info("server closed", "final_snapshot", flush)
	}
	return flushErr
}

// Shards returns the number of runtime shards.
func (s *Server) Shards() int { return len(s.hosts) }

// Epoch returns the current dataset version (the number of update batches
// applied so far).
func (s *Server) Epoch() uint64 {
	s.seqMu.RLock()
	defer s.seqMu.RUnlock()
	return s.epoch
}

// QueryResult is one query's outcome: the merged answer over all shards
// plus the dataset version it reflects and aggregated execution stats.
type QueryResult struct {
	// IDs is the answer set as ascending global dataset graph ids.
	IDs []int `json:"ids"`
	// Epoch is the dataset version the answer reflects: the query
	// observed exactly the update batches 1..Epoch.
	Epoch uint64 `json:"epoch"`
	// Kind is "sub" or "super".
	Kind string `json:"kind"`
	// Wall is the end-to-end front-end latency.
	Wall time.Duration `json:"wall_ns"`
	// Candidates sums |CS_M| over shards (the live dataset size).
	Candidates int `json:"candidates"`
	// SubIsoTests sums the Method M tests executed across shards.
	SubIsoTests int `json:"subiso_tests"`
	// TestsSaved sums the spared tests across shards.
	TestsSaved int `json:"tests_saved"`
	// ZeroTestShards counts shards that answered without any sub-iso
	// test (§6.3 optimal cases or a fully pruned candidate set).
	ZeroTestShards int `json:"zero_test_shards"`
	// Truncated reports that a limited query's answer may be a proper
	// prefix of the full answer set: the merged IDs were cut to the
	// limit, or at least one shard stopped verification early. The IDs
	// present are still exact — the smallest len(IDs) answers.
	Truncated bool `json:"truncated,omitempty"`
	// PerShard holds the raw per-shard execution stats, shard order.
	PerShard []core.QueryStats `json:"-"`
	// TraceID is the retained distributed trace's id, zero when the
	// query was neither sampled nor anomalous. Fetch the full span tree
	// at GET /debug/traces/{id}.
	TraceID trace.ID `json:"-"`
	// trace is the retained trace itself, which ?trace=1 renders.
	trace *trace.Trace
}

// Query answers one graph-pattern query across all shards: kind
// cache.KindSub asks "which live dataset graphs contain q?",
// cache.KindSuper "which live dataset graphs are contained in q?".
//
// When ctx (or the server's QueryTimeout, whichever is sooner) expires,
// the front-end returns a core.CancelError immediately and the per-shard
// work aborts at its next cooperative checkpoint.
//
// limit > 0 returns at most limit answers — exactly the limit smallest
// global ids of the full answer set. Each shard streams its verification
// in ascending id order and stops after limit local answers; any global
// top-limit id has fewer than limit predecessors overall, hence fewer
// than limit within its own shard, so the per-shard prefixes always
// cover the global prefix and the merged-and-cut result is exact.
// QueryResult.Truncated reports whether anything was cut. limit <= 0
// means unlimited.
func (s *Server) Query(ctx context.Context, kind cache.Kind, q *graph.Graph, limit int) (*QueryResult, error) {
	return s.query(ctx, kind, q, limit, false)
}

// query is Query; forceTrace samples the query's trace regardless of
// the head sampler (POST /query?trace=1).
func (s *Server) query(ctx context.Context, kind cache.Kind, q *graph.Graph, limit int, forceTrace bool) (*QueryResult, error) {
	if q == nil {
		return nil, errors.New("serve: nil query graph")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if t := s.opts.QueryTimeout; t > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, t)
		defer cancel()
	}
	qt := s.beginTrace("query", kind.String(), forceTrace)
	// Admission control: fast-fail instead of convoying on the sequence
	// lock when the in-flight bound is saturated.
	if s.querySem != nil {
		select {
		case s.querySem <- struct{}{}:
			defer func() { <-s.querySem }()
		default:
			s.shedQueries.Add(1)
			qt.finishShed(s)
			return nil, &OverloadError{Kind: "query", Limit: cap(s.querySem)}
		}
	}
	// Apply the active degradation rung. Both rungs keep answers exact:
	// capping verification only slows this query, and bypassing the
	// cache is pure Method M — sound by construction.
	qopt := core.QueryOptions{TraceID: qt.exemplarID()}
	if limit > 0 {
		qopt.Limit = limit
	}
	lvl := s.press.Level()
	rung, rungName := int(lvl), lvl.String()
	switch {
	case lvl >= DegradeCacheBypass:
		qopt.BypassCache = true
		qopt.MaxVerifyParallelism = 1
	case lvl >= DegradeCappedVerify:
		qopt.MaxVerifyParallelism = 1
	}
	start := s.now()
	qt.noteAdmitted(start, rung, rungName)
	req := &shardhost.QueryRequest{Kind: kind, Query: q, Opts: qopt}
	replies := make([]shardhost.QueryReply, len(s.clients))
	rtts := make([]int64, len(s.clients))
	var wg sync.WaitGroup
	done := ctx.Done() // nil for Background: the whole ctx plumbing is then free

	// Dispatch one request per shard atomically w.r.t. update batches —
	// every ShardClient fixes its shard's call order synchronously, so
	// the epoch read here is exactly the dataset version every shard
	// will answer at (FIFO queues — see package comment).
	s.seqMu.RLock()
	if s.closed {
		s.seqMu.RUnlock()
		qt.finishEarly(s, ErrClosed)
		return nil, ErrClosed
	}
	epoch := s.epoch
	wg.Add(len(s.clients))
	for i, c := range s.clients {
		at := time.Now()
		c.Query(ctx, req, &replies[i], func() {
			rtts[i] = time.Since(at).Nanoseconds()
			wg.Done()
		})
	}
	s.seqMu.RUnlock()
	s.obs.noteTransport("query", int64(len(s.clients)))
	if done == nil {
		wg.Wait()
	} else {
		// Deadline-bounded wait: give up the moment ctx expires instead
		// of riding out a stalled shard. The abandoned jobs abort at
		// their next checkpoint and only touch replies/rtts/wg, which
		// stay alive until they finish — the error path never reads
		// them.
		finished := make(chan struct{})
		go func() { wg.Wait(); close(finished) }()
		select {
		case <-finished:
		case <-done:
			err := &core.CancelError{Stage: "wait", Err: ctx.Err()}
			s.noteDeadline(err)
			qt.finishEarly(s, err)
			return nil, err
		}
	}
	qt.noteFanoutDone(s.now())

	out := &QueryResult{
		Epoch: epoch, Kind: kind.String(),
		PerShard: make([]core.QueryStats, len(s.clients)),
	}
	for i := range replies {
		if err := replies[i].Err; err != nil {
			s.noteDeadline(err)
			qt.finishReplyErr(s, err, replies, rtts, start)
			return nil, err
		}
	}
	lists := make([][]int, 0, len(replies))
	for i := range replies {
		r := &replies[i]
		lists = append(lists, r.IDs)
		out.PerShard[i] = r.Stats
		s.obs.observeRTT(i, time.Duration(rtts[i]), qopt.TraceID)
		out.Candidates += r.Stats.CandidatesBefore
		out.SubIsoTests += r.Stats.SubIsoTests
		out.TestsSaved += r.Stats.TestsSaved
		if r.Stats.SubIsoTests == 0 {
			out.ZeroTestShards++
		}
		if r.Stats.Truncated {
			out.Truncated = true
		}
	}
	out.IDs = mergeSorted(lists)
	if limit > 0 && len(out.IDs) > limit {
		// Exact cut: every shard contributed its limit smallest local
		// answers, which always covers the global top-limit prefix.
		out.IDs = out.IDs[:limit]
		out.Truncated = true
	}
	end := s.now()
	if d := end.Sub(start); d > 0 { // clamp: clock-skew injection must not corrupt stats
		out.Wall = d
	}
	// Finish the trace before the slow log captures the result, so a
	// slow entry can link the retained trace id.
	qt.finishQuery(s, out, replies, rtts, start, end)
	if t := s.opts.SlowLogThreshold; t > 0 && out.Wall >= t {
		s.slow.record(q, out)
	}
	return out, nil
}

// OpResult is the outcome of one operation within an update batch.
type OpResult struct {
	// ID is the global graph id: the id assigned by ADD, or the target
	// id of DEL/UA/UR. It is -1 when the op failed.
	ID int `json:"id"`
	// Err is the per-op failure, nil on success.
	Err error `json:"-"`
}

// UpdateResult summarizes one update batch.
type UpdateResult struct {
	// Epoch is the dataset version after the batch; queries reporting an
	// epoch ≥ this observe every operation of the batch.
	Epoch uint64 `json:"epoch"`
	// Applied counts the operations that succeeded.
	Applied int `json:"applied"`
	// Ops holds one result per input operation, in order.
	Ops []OpResult `json:"ops"`
}

// Update applies a batch of dataset change operations through the
// single-writer path and advances the epoch once for the whole batch.
// Concurrent queries observe either none or all of the batch. Individual
// operations may fail (e.g. DEL of an already deleted graph) without
// aborting the batch; inspect the per-op results. The returned error is
// non-nil when the server is closed, the batch is empty, or — with the
// WAL enabled — a WAL append failed; in the last case the returned
// result is non-nil and the batch *is* applied in memory, it just may
// not be durable.
//
// The sequence lock is held only while *enqueueing* the batch's shard
// jobs: routing (including the local id an ADD will receive) is decided
// writer-side, so nothing needs a job result before the next op can be
// routed, and queries resume enqueueing while the batch executes —
// FIFO order alone guarantees they observe all of it.
//
// With the WAL enabled, every shard — touched or not — logs one
// epoch-stamped frame for the batch (empty for untouched shards, which
// keeps per-shard epochs dense and crash recovery's cross-shard
// consistency point computable), and Update does not return before the
// frames are durable: an acknowledged batch survives a crash. A WAL
// append failure — after the appender's bounded in-place retries — is
// handled per Options.WALPolicy: under WALPolicyFailUpdate it is
// returned as an error alongside the result (the batch is applied in
// memory but may not be durable, and the durable-epoch claim in Stats
// stops advancing); under WALPolicyDegradeToVolatile the batch is
// acknowledged and the shard latches volatile until a snapshot
// rotation heals it.
func (s *Server) Update(ops []changeplan.Op) (*UpdateResult, error) {
	return s.UpdateCtx(context.Background(), ops)
}

// UpdateCtx is Update under a caller deadline. The deadline (combined
// with Options.UpdateTimeout) governs *admission*: it is checked up to
// the moment the batch is enqueued, after which the batch runs to
// completion — update batches are atomic, and aborting one halfway
// would tear the epoch.
func (s *Server) UpdateCtx(ctx context.Context, ops []changeplan.Op) (*UpdateResult, error) {
	if len(ops) == 0 {
		return nil, errors.New("serve: empty update batch")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if t := s.opts.UpdateTimeout; t > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, t)
		defer cancel()
	}
	ut := s.beginTrace("update", "", false)
	if s.updateSem != nil {
		select {
		case s.updateSem <- struct{}{}:
			defer func() { <-s.updateSem }()
		default:
			s.shedUpdates.Add(1)
			ut.finishShed(s)
			return nil, &OverloadError{Kind: "update", Limit: cap(s.updateSem)}
		}
	}
	s.writerMu.Lock()
	defer s.writerMu.Unlock()
	if done := ctx.Done(); done != nil {
		// Last admission checkpoint: the wait for the writer lock may
		// have consumed the deadline; past this point we commit.
		select {
		case <-done:
			err := &core.CancelError{Stage: "update", Err: ctx.Err()}
			s.noteDeadline(err)
			ut.finishEarly(s, err)
			return nil, err
		default:
		}
	}
	ut.noteAdmitted(s.now(), 0, "")

	s.seqMu.Lock()
	if s.closed {
		s.seqMu.Unlock()
		ut.finishEarly(s, ErrClosed)
		return nil, ErrClosed
	}
	touched := make(map[int]bool)
	pending := make([]<-chan OpResult, len(ops))
	for i, op := range ops {
		pending[i] = s.enqueueOp(op, touched)
	}
	s.epoch++
	epoch := s.epoch
	var walAcks []<-chan error
	var walReplies []*shardhost.WALAppendReply
	if s.walWanted() {
		walAcks, walReplies = s.enqueueWALAppends(epoch)
	}
	if s.store != nil && s.opts.SnapshotEvery > 0 &&
		epoch >= s.lastSnapshotEpoch.Load()+uint64(s.opts.SnapshotEvery) {
		// Anchored at the last durable generation (not absolute epoch
		// multiples), so the interval means "batches since the last
		// snapshot" regardless of recovery points or forced snapshots.
		s.maybeSnapshotLocked(epoch)
	}
	s.seqMu.Unlock()

	res := &UpdateResult{Epoch: epoch, Ops: make([]OpResult, len(ops))}
	for i, ch := range pending {
		res.Ops[i] = <-ch
		if res.Ops[i].Err == nil {
			res.Applied++
		}
	}
	var walErr error
	for i, ch := range walAcks {
		// Drain every ack even after a failure: the per-shard appenders
		// must not be left blocking on their result channels.
		if err := <-ch; err != nil && walErr == nil {
			s.log.Error("WAL append failed, batch not durable",
				"epoch", epoch, "shard", i, "policy", s.opts.WALPolicy, "err", err)
			walErr = &transport.DurabilityError{Epoch: epoch, Shard: i, Err: err}
		}
	}
	ut.finishUpdate(s, s.now(), epoch, res.Applied, walReplies, walErr)
	if walErr != nil {
		return res, walErr
	}
	return res, nil
}

// enqueueOp routes one operation to the shard owning its target graph
// and dispatches its application through the shard's client, returning a
// channel that delivers the result once the shard worker has run it.
// Routing failures resolve immediately. Called with writerMu and seqMu
// held; the id bookkeeping (loc, shardNextLocal) is updated here, at
// dispatch time, so later ops in the same batch can target a graph an
// earlier op is about to add. The host applies the op, maintains its
// local→global map and accumulates the WAL batch.
func (s *Server) enqueueOp(op changeplan.Op, touched map[int]bool) <-chan OpResult {
	out := make(chan OpResult, 1)
	fail := func(err error) <-chan OpResult {
		out <- OpResult{ID: -1, Err: err}
		return out
	}
	dispatch := func(sid int, op changeplan.Op, gid int) <-chan OpResult {
		touched[sid] = true
		reply := new(shardhost.OpReply)
		s.clients[sid].ApplyOp(&shardhost.OpRequest{Op: op, GlobalID: gid}, reply, func() {
			out <- OpResult{ID: reply.ID, Err: reply.Err}
		})
		s.obs.noteTransport("apply_op", 1)
		return out
	}
	switch op.Type {
	case dataset.OpAdd:
		if op.Graph == nil {
			return fail(errors.New("serve: ADD with nil graph"))
		}
		sid := s.nextAdd % len(s.clients)
		s.nextAdd++
		gid := len(s.loc)
		s.loc = append(s.loc, location{shard: int32(sid), local: int32(s.shardNextLocal[sid])})
		s.shardNextLocal[sid]++
		return dispatch(sid, op, gid)
	case dataset.OpDelete, dataset.OpUpdateAddEdge, dataset.OpUpdateRemoveEdge:
		gid := op.GraphID
		if gid < 0 || gid >= len(s.loc) {
			return fail(fmt.Errorf("serve: graph id %d out of range [0,%d)", gid, len(s.loc)))
		}
		l := s.loc[gid]
		// Ops cross the service boundary in shard-local id space; the
		// host re-anchors error messages to the global id we pass along.
		lop := changeplan.Op{Type: op.Type, GraphID: int(l.local), U: op.U, V: op.V}
		return dispatch(int(l.shard), lop, gid)
	}
	return fail(fmt.Errorf("serve: unknown op type %v", op.Type))
}

// ShardStats reports one shard's state on the stats endpoint.
type ShardStats struct {
	// Shard is the shard index.
	Shard int `json:"shard"`
	// LiveGraphs is the shard partition's live dataset size.
	LiveGraphs int `json:"live_graphs"`
	// LogSeq is the shard dataset's latest update-log sequence number.
	LogSeq uint64 `json:"log_seq"`
	// HitRate is the fraction of shard queries answered with zero
	// Method M sub-iso tests.
	HitRate float64 `json:"hit_rate"`
	// ValidityRatio is the fraction of (entry, live graph) validity bits
	// currently set in the shard cache — the metric the background
	// repair pipeline recovers after update churn (1 when disabled).
	ValidityRatio float64 `json:"validity_ratio"`
	// QueueLen is the shard job queue's depth at snapshot time — jobs
	// enqueued but not yet started (head-of-line pressure).
	QueueLen int `json:"queue_len"`
	// WALBytes is the shard's current WAL segment size (0 when
	// persistence or the WAL is off). Tracked in memory by the
	// appender — stats snapshots cost no directory IO.
	WALBytes int64 `json:"wal_bytes"`
	// WALAppends and WALAppendErrors count the shard's WAL append
	// attempts and failures over the process lifetime.
	WALAppends      int64 `json:"wal_appends"`
	WALAppendErrors int64 `json:"wal_append_errors"`
	// Metrics is the shard runtime's aggregate query statistics.
	Metrics core.MetricsSnapshot `json:"metrics"`
	// Cache is the shard cache's state snapshot (zero when disabled).
	Cache cache.Stats `json:"cache"`
}

// Stats is the server-wide statistics snapshot.
type Stats struct {
	// Epoch is the current dataset version.
	Epoch uint64 `json:"epoch"`
	// Shards is the shard count.
	Shards int `json:"shards"`
	// Transport names the shard transport ("local" or "loopback").
	Transport string `json:"transport"`
	// LiveGraphs is the live dataset size across shards.
	LiveGraphs int `json:"live_graphs"`
	// Queries is the number of queries served: the maximum per-shard
	// query count (every query touches every shard once, so the counts
	// agree up to queries in flight during the snapshot).
	Queries int64 `json:"queries"`
	// HitRate is the mean per-shard zero-test rate.
	HitRate float64 `json:"hit_rate"`
	// ValidityRatio is the mean per-shard cache validity ratio.
	ValidityRatio float64 `json:"validity_ratio"`
	// RepairedBits sums the validity bits restored by the repair
	// pipeline across shards.
	RepairedBits int64 `json:"repaired_bits"`
	// PendingRepairs sums the queued invalidated pairs across shards.
	PendingRepairs int `json:"pending_repairs"`
	// RepairDropped sums the invalidated pairs shed on full repair
	// queues across shards (they simply stay invalid).
	RepairDropped int64 `json:"repair_dropped"`
	// SlowQueries counts queries captured by the slow-query log over the
	// process lifetime (0 when the log is disabled), including entries
	// the bounded ring has since overwritten.
	SlowQueries int64 `json:"slow_queries"`
	// PlanCacheHits/PlanCacheMisses sum the shards' compiled-plan cache
	// outcomes: every shard execution of a query is one or the other.
	PlanCacheHits   int64 `json:"plan_cache_hits"`
	PlanCacheMisses int64 `json:"plan_cache_misses"`

	// Overload and degradation state.

	// DegradationLevel is the pressure controller's active rung (0 =
	// none, 1 = capped-verify, 2 = cache-bypass); DegradationMode is its
	// name.
	DegradationLevel int    `json:"degradation_level"`
	DegradationMode  string `json:"degradation_mode"`
	// DegradedSeconds is the total wall time this process has spent at a
	// degradation level above none.
	DegradedSeconds float64 `json:"degraded_seconds"`
	// ShedQueries/ShedUpdates count requests fast-failed by admission
	// control (HTTP 429) over the process lifetime.
	ShedQueries int64 `json:"shed_queries"`
	ShedUpdates int64 `json:"shed_updates"`
	// DeadlineExceeded counts requests that expired their deadline (HTTP
	// 504); the per-stage split is on /metrics.
	DeadlineExceeded int64 `json:"deadline_exceeded"`
	// deadlineByStage feeds the labeled /metrics series (not part of the
	// JSON surface; the total above is).
	deadlineByStage map[string]int64

	// UptimeSec is the seconds since this process built the server —
	// monotonic (measured on the runtime's monotonic clock), so ops
	// dashboards can tell a restarted instance from a long-running one
	// regardless of wall-clock adjustments.
	UptimeSec float64 `json:"uptime_sec"`
	// GoVersion and ModuleVersion identify the build serving this
	// process (runtime.Version() and the module's embedded build info).
	GoVersion     string `json:"go_version"`
	ModuleVersion string `json:"module_version"`

	// Durability gauges (all zero when persistence is off).

	// PersistEnabled reports whether a data directory is configured.
	PersistEnabled bool `json:"persist_enabled"`
	// WALBytes sums the shards' current WAL segment sizes (older
	// segments awaiting a generation's cleanup are not counted; they
	// disappear at the next snapshot).
	WALBytes int64 `json:"wal_bytes"`
	// WALAppends and WALAppendErrors sum the shards' WAL append attempts
	// and failures over the process lifetime.
	WALAppends      int64 `json:"wal_appends"`
	WALAppendErrors int64 `json:"wal_append_errors"`
	// LastSnapshotEpoch is the epoch of the newest durable snapshot
	// generation written by this process (the recovered generation's
	// epoch right after a restart).
	LastSnapshotEpoch uint64 `json:"last_snapshot_epoch"`
	// SnapshotsWritten counts snapshot generations this process wrote.
	SnapshotsWritten int64 `json:"snapshots_written"`
	// RecoveredEpoch is the epoch this boot's recovery reached after WAL
	// replay (0 on a cold boot).
	RecoveredEpoch uint64 `json:"recovered_epoch"`
	// DurableEpoch is the newest epoch the server can currently prove
	// durable: the last snapshot generation, advanced by the WAL to the
	// minimum per-shard epoch whose frames were acknowledged by a
	// successful append. It stops advancing the moment any shard's
	// appends fail — under either WAL policy — so "epoch minus
	// durable_epoch" is exactly the window a crash would lose.
	DurableEpoch uint64 `json:"durable_epoch"`
	// WALPolicy is the configured append-failure policy, and
	// WALVolatileShards counts shards with an open WAL durability gap
	// (an append failure survived its retries, so later appends into
	// the same segment cannot prove durability); both policies latch
	// the gap, which heals on the next complete snapshot generation.
	WALPolicy         string `json:"wal_policy,omitempty"`
	WALVolatileShards int    `json:"wal_volatile_shards"`

	// PerShard holds the shard breakdown.
	PerShard []ShardStats `json:"per_shard"`
}

// Stats snapshots server-wide and per-shard statistics. The snapshot is
// epoch-consistent with concurrently running updates, like a query.
func (s *Server) Stats() (*Stats, error) {
	replies := make([]shardhost.StatsReply, len(s.clients))
	var wg sync.WaitGroup

	s.seqMu.RLock()
	if s.closed {
		s.seqMu.RUnlock()
		return nil, ErrClosed
	}
	epoch := s.epoch
	wg.Add(len(s.clients))
	for i, c := range s.clients {
		c.Stats(&replies[i], wg.Done)
	}
	s.seqMu.RUnlock()
	s.obs.noteTransport("stats", int64(len(s.clients)))
	wg.Wait()

	per := make([]ShardStats, len(replies))
	for i := range replies {
		r := &replies[i]
		if r.Err != nil {
			return nil, r.Err
		}
		per[i] = ShardStats{
			Shard:           i,
			LiveGraphs:      r.LiveGraphs,
			LogSeq:          r.LogSeq,
			HitRate:         r.HitRate,
			ValidityRatio:   r.ValidityRatio,
			QueueLen:        r.QueueLen,
			WALBytes:        r.WALBytes,
			WALAppends:      r.WALAppends,
			WALAppendErrors: r.WALAppendErrors,
			Metrics:         r.Metrics,
			Cache:           r.Cache,
		}
	}

	now := s.now()
	out := &Stats{
		Epoch:            epoch,
		Shards:           len(s.hosts),
		Transport:        s.transportKind,
		PerShard:         per,
		GoVersion:        runtime.Version(),
		ModuleVersion:    buildVersion,
		ShedQueries:      s.shedQueries.Load(),
		ShedUpdates:      s.shedUpdates.Load(),
		DeadlineExceeded: s.deadlines.total(),
		deadlineByStage: map[string]int64{
			"queue":  s.deadlines.queue.Load(),
			"sync":   s.deadlines.syncStage.Load(),
			"hit":    s.deadlines.hit.Load(),
			"verify": s.deadlines.verify.Load(),
			"wait":   s.deadlines.wait.Load(),
			"update": s.deadlines.update.Load(),
			"other":  s.deadlines.other.Load(),
		},
	}
	if d := now.Sub(s.started); d > 0 { // clamp under clock-skew injection
		out.UptimeSec = d.Seconds()
	}
	lvl := s.press.Level()
	out.DegradationLevel = int(lvl)
	out.DegradationMode = lvl.String()
	out.DegradedSeconds = s.press.degradedSeconds(now)
	if s.store != nil {
		out.PersistEnabled = true
		out.LastSnapshotEpoch = s.lastSnapshotEpoch.Load()
		out.SnapshotsWritten = s.snapshotsWritten.Load()
		out.RecoveredEpoch = s.recoveredEpoch
		out.WALPolicy = s.opts.WALPolicy
		out.DurableEpoch = s.lastSnapshotEpoch.Load()
		if s.walWanted() {
			minWAL := uint64(math.MaxUint64)
			for i := range replies {
				if e := replies[i].DurableEpoch; e < minWAL {
					minWAL = e
				}
				if replies[i].VolatileWAL {
					out.WALVolatileShards++
				}
			}
			if minWAL != math.MaxUint64 && minWAL > out.DurableEpoch {
				out.DurableEpoch = minWAL
			}
		}
	}
	out.SlowQueries = s.slow.captured()
	for _, ss := range per {
		out.WALBytes += ss.WALBytes
		out.WALAppends += ss.WALAppends
		out.WALAppendErrors += ss.WALAppendErrors
		out.LiveGraphs += ss.LiveGraphs
		out.HitRate += ss.HitRate
		out.ValidityRatio += ss.ValidityRatio
		out.RepairedBits += ss.Cache.RepairedBits
		out.PendingRepairs += ss.Cache.PendingRepairs
		out.RepairDropped += ss.Cache.RepairDropped
		out.PlanCacheHits += ss.Metrics.PlanCacheHits
		out.PlanCacheMisses += ss.Metrics.PlanCacheMisses
		if ss.Metrics.Queries > out.Queries {
			out.Queries = ss.Metrics.Queries
		}
	}
	if len(per) > 0 {
		out.HitRate /= float64(len(per))
		out.ValidityRatio /= float64(len(per))
	}
	return out, nil
}

// mergeSorted merges the per-shard answer lists into one ascending
// list. Each list is already ascending: shard-local ids are assigned in
// global-id order (round-robin initial partition, then round-robin
// ADDs), so the local → global translation is monotone, and the shards'
// id sets are disjoint. The lists are merged pairwise in rounds, each
// round one linear pass over the ids, so a query pays
// O(total·⌈log₂ shards⌉) instead of a scan of every shard per id. lists
// is reused as scratch.
func mergeSorted(lists [][]int) []int {
	for len(lists) > 1 {
		next := lists[:0]
		for i := 0; i < len(lists); i += 2 {
			if i+1 == len(lists) {
				next = append(next, lists[i])
			} else {
				next = append(next, merge2(lists[i], lists[i+1]))
			}
		}
		lists = next
	}
	return lists[0]
}

// merge2 merges two disjoint ascending lists into a fresh one.
func merge2(a, b []int) []int {
	out := make([]int, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i] < b[j] {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}
