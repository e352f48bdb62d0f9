// Package shardhost is the single-shard owner service of the serving
// stack: one Host owns one partition of the dataset — its own
// dataset.Dataset (with its own update log for §5.2 CON validation),
// core.Runtime and GC+ cache — plus that partition's durability state
// (WAL segment, pending batch ops, durable-epoch claim).
//
// A Host is deliberately narrow: it answers the ShardService contract —
// Query, ApplyOp, AppendWAL, Sync, Snapshot, Stats — and nothing else.
// Placement (global graph id → shard), epoch sequencing, fan-out/merge,
// admission control and the pressure ladder all live one layer up in
// internal/router, which talks to Hosts only through the
// internal/transport ShardClient interface. That is what makes a shard
// *addressable*: the router cannot tell a Host reached by direct
// in-process calls from one reached over a wire, and the consistency
// argument (FIFO job order per shard, enqueue-order atomicity across
// shards) only requires that a transport establish per-shard call order
// synchronously at call time.
//
// A single worker goroutine — this shard's member of the query worker
// pool — executes every job touching the shard state, which is what
// makes the not-thread-safe runtime safe to serve from: all access is
// funnelled through the FIFO jobs queue. Service methods enqueue an
// owner job synchronously and return; the reply struct is filled and the
// done callback invoked when the job completes.
package shardhost

import (
	"context"
	"log/slog"
	"sync/atomic"
	"time"

	"gcplus/internal/core"
	"gcplus/internal/dataset"
	"gcplus/internal/graph"
	"gcplus/internal/obs"
	"gcplus/internal/persist"
)

// JobQueueDepth bounds how many jobs can wait per shard before enqueue
// blocks. Enqueues happen under the router's sequence lock, so a deep
// queue keeps bursts from serializing front-end callers on a single
// slow shard. Exported because the router's pressure thresholds are
// fractions of it.
const JobQueueDepth = 128

// Config carries the host-side durability and policy settings. The
// Store is shared with the router in the single-process deployments
// this package currently serves (local and loopback transports run all
// shards in one process); a future remote host would own its shard
// directories outright — the path scheme is already per-shard.
type Config struct {
	// Store locates the shard's WAL segments and snapshot files; nil
	// disables persistence entirely.
	Store *persist.Store
	// WAL enables update-batch logging (Store must be set).
	WAL bool
	// NoSync skips the fsync after each WAL append.
	NoSync bool
	// WALPolicy is the append-failure policy; the vocabulary (and the
	// shared status-code table it maps into) lives in internal/transport.
	WALPolicy string
	// FailUpdateOnGap selects the fail-update policy's behavior for the
	// WALPolicy string without this package importing the policy
	// constants: true propagates append failures to the batch ack, false
	// (degrade-to-volatile) acknowledges them and latches volatile.
	FailUpdateOnGap bool
	// OnDurabilityGap, if set, is called (on the owner goroutine) right
	// after a WAL durability gap opens, so the coordinator can schedule
	// a healing snapshot rotation.
	OnDurabilityGap func()
}

// Host owns one shard. See the package comment for the ownership and
// threading model.
type Host struct {
	id   int
	ds   *dataset.Dataset
	rt   *core.Runtime
	jobs chan func()
	done chan struct{}
	cfg  Config

	// Background repair pipeline (nil channels when repair is off). The
	// repair goroutine never touches shard state directly: it enqueues a
	// plan job and a commit job on the worker (owner context) and runs
	// only the verification phase — which reads immutable data — itself.
	repairKick chan struct{} // worker → repair loop: queue non-empty
	repairQuit chan struct{} // closed by Stop, before jobs is closed
	repairDone chan struct{} // closed when the repair loop has exited

	// Durability state (nil/empty when persistence is off). wal is the
	// shard's current WAL segment; appends, rotation and walPending are
	// all owner-goroutine state, ordered with the dataset mutations they
	// record by the FIFO queue itself. walPending accumulates the
	// current batch's successfully applied ops between the batch's op
	// jobs and its WAL-append job.
	wal        *persist.WAL
	walPending []persist.WALOp

	// durableEpoch is the newest epoch this shard can prove durable
	// (last successful WAL append or snapshot covering it); the router's
	// durable-epoch claim is the minimum over shards. volatileWAL
	// latches when the degrade-to-volatile policy swallows an append
	// failure; cleared when a snapshot rotation installs a fresh healthy
	// segment.
	durableEpoch atomic.Uint64
	volatileWAL  atomic.Bool
	walGapEpoch  uint64 // first epoch lost to the open gap (owner state)

	// localToGlobal translates shard-local graph ids to global ids. It
	// is appended to by ADD jobs and read by query jobs — both run on
	// the worker goroutine, so no locking is needed.
	localToGlobal []int

	// Observability. queueWait measures enqueue-to-execution latency of
	// every job routed through Enqueue — the head-of-line blocking a
	// query experiences behind updates, repairs and snapshots on this
	// shard. walAppend measures the WAL append (encode + write + fsync)
	// inside the owner job; walAppends/walAppendErrors are its lifetime
	// counters, read lock-free by stats and metrics scrapes.
	queueWait       *obs.Histogram
	walAppend       *obs.Histogram
	walAppends      atomic.Int64
	walAppendErrors atomic.Int64
	// log receives shard lifecycle warnings (repair-queue drops); set
	// via SetLogger before Start. lastRepairDropped is owner-goroutine
	// state backing the drop-detection edge trigger.
	log               *slog.Logger
	lastRepairDropped int64

	// pendingRepairs mirrors the runtime's repair backlog for lock-free
	// reads by the pressure controller (through Signals); the owner
	// goroutine publishes it after every job.
	pendingRepairs atomic.Int64

	// Fault-injection and clock hooks, set before Start. stall (nil in
	// production) runs at the start of every job; now replaces time.Now
	// for queue-wait bookkeeping.
	stall func(int)
	now   func() time.Time

	// repairCtx is cancelled by Stop so an in-flight repair verification
	// exits at its next cooperative checkpoint instead of finishing the
	// whole batch.
	repairCtx    context.Context
	repairCancel context.CancelFunc
}

// New builds a Host over its partition. gids lists the global ids of
// the partition graphs in local-id order. The host's goroutines are not
// started: callers run Start once the shard state — possibly overlaid
// with recovered snapshot/WAL state — is final.
func New(id int, part []*graph.Graph, gids []int, opts core.Options, cfg Config) (*Host, error) {
	return NewOver(id, dataset.New(part), gids, opts, cfg)
}

// NewOver builds a Host over an existing dataset (the recovery path
// restores the dataset first).
func NewOver(id int, ds *dataset.Dataset, gids []int, opts core.Options, cfg Config) (*Host, error) {
	rt, err := core.NewRuntime(ds, opts)
	if err != nil {
		return nil, err
	}
	return &Host{
		id:            id,
		ds:            ds,
		rt:            rt,
		cfg:           cfg,
		jobs:          make(chan func(), JobQueueDepth),
		done:          make(chan struct{}),
		localToGlobal: gids,
		queueWait:     obs.NewHistogram(),
		walAppend:     obs.NewHistogram(),
		log:           slog.New(slog.DiscardHandler),
		now:           time.Now,
	}, nil
}

// ID returns the shard index.
func (h *Host) ID() int { return h.id }

// SetLogger routes shard lifecycle warnings; call before Start.
func (h *Host) SetLogger(l *slog.Logger) {
	if l != nil {
		h.log = l
	}
}

// SetClock replaces time.Now for queue-wait bookkeeping (the chaos
// harness's clock-skew hook); call before Start.
func (h *Host) SetClock(now func() time.Time) {
	if now != nil {
		h.now = now
	}
}

// SetStall installs the chaos harness's per-job stall hook; call before
// Start.
func (h *Host) SetStall(fn func(int)) { h.stall = fn }

// Runtime exposes the shard runtime for boot-time construction
// (recovery restores state before Start) and owner-context test
// drivers. Outside those windows every access must go through the job
// queue.
func (h *Host) Runtime() *core.Runtime { return h.rt }

// Dataset exposes the shard dataset under the same owner-context
// contract as Runtime.
func (h *Host) Dataset() *dataset.Dataset { return h.ds }

// LocalToGlobal returns the shard's local→global id map. Boot-time and
// owner-context use only.
func (h *Host) LocalToGlobal() []int { return h.localToGlobal }

// QueueWaitHist and WALAppendHist expose the host-owned histograms for
// registry registration by the process that scrapes them.
func (h *Host) QueueWaitHist() *obs.Histogram { return h.queueWait }
func (h *Host) WALAppendHist() *obs.Histogram { return h.walAppend }

// QueueLen reports the job queue depth (jobs enqueued, not started).
func (h *Host) QueueLen() int { return len(h.jobs) }

// Signals is the host's lock-free control-plane sample: the inputs the
// router's pressure controller ladders on.
type Signals struct {
	QueueLen       int
	PendingRepairs int64
}

// Signals samples the current pressure inputs lock-free.
func (h *Host) Signals() Signals {
	return Signals{QueueLen: len(h.jobs), PendingRepairs: h.pendingRepairs.Load()}
}

// Enqueue submits a job to the shard worker, recording how long it
// waited in the queue before running. Every job producer goes through
// here so the queue-wait histogram covers the shard's whole workload
// and the stall hook covers every job. The wait is clamped at zero:
// under clock-skew injection h.now may step backwards, and a skewed
// clock must only distort metrics, never state.
func (h *Host) Enqueue(fn func()) {
	h.EnqueueTimed(func(time.Duration) { fn() })
}

// EnqueueTimed is Enqueue for jobs that want their own measured queue
// wait (Query reports it as the reply's QueueNanos without a second
// clock read).
func (h *Host) EnqueueTimed(fn func(wait time.Duration)) {
	at := h.now()
	h.jobs <- func() {
		if h.stall != nil {
			h.stall(h.id)
		}
		d := h.now().Sub(at)
		if d < 0 {
			d = 0
		}
		h.queueWait.Observe(d)
		fn(d)
	}
}

// Start launches the host's worker goroutine and, when repairPar > 0
// and the shard has a cache, its background repair worker.
func (h *Host) Start(repairPar int) {
	if repairPar > 0 && h.rt.CacheEnabled() {
		h.repairKick = make(chan struct{}, 1)
		h.repairQuit = make(chan struct{})
		h.repairDone = make(chan struct{})
		h.repairCtx, h.repairCancel = context.WithCancel(context.Background())
		go h.repairLoop(repairPar)
	}
	go h.loop()
}

// loop is the worker goroutine: drain jobs in FIFO order until stopped.
// After every job it kicks the repair loop if validation left
// invalidated pairs behind (PendingRepairs is an owner-context read).
func (h *Host) loop() {
	defer close(h.done)
	for job := range h.jobs {
		job()
		if h.rt.CacheEnabled() {
			// Publish the repair backlog for the pressure controller's
			// lock-free sampling (owner-context read, atomic publish).
			h.pendingRepairs.Store(int64(h.rt.PendingRepairs()))
		}
		if h.repairKick != nil {
			// Edge-triggered drop warning: the cache counts pairs it
			// sheds on a full repair queue; surface each increase once
			// instead of flooding one line per dropped pair.
			if d := h.rt.CacheStats().RepairDropped; d > h.lastRepairDropped {
				h.log.Warn("repair queue full, invalidated pairs dropped",
					"shard", h.id, "dropped", d-h.lastRepairDropped, "total_dropped", d)
				h.lastRepairDropped = d
			}
			if h.rt.PendingRepairs() > 0 {
				select {
				case h.repairKick <- struct{}{}:
				default: // a kick is already pending
				}
			}
		}
	}
}

// repairLoop is the shard's background repair worker. Each round drains
// one batch of invalidated (entry, graph) pairs via an owner-context
// plan job, re-verifies them on this goroutine (fanning out to
// parallelism workers over immutable data), and restores the surviving
// bits via an owner-context commit job. Because plan and commit run on
// the worker goroutine, repair interleaves with queries and update
// batches without locks and can never race an in-flight batch; the
// graph-version pointer check in CommitRepairs drops any result an
// interleaved update made stale.
func (h *Host) repairLoop(parallelism int) {
	defer close(h.repairDone)
	for {
		select {
		case <-h.repairQuit:
			return
		case <-h.repairKick:
		}
		for {
			select {
			case <-h.repairQuit:
				return
			default:
			}
			var jobs []core.RepairJob
			planned := make(chan struct{})
			h.Enqueue(func() {
				jobs = h.rt.PlanRepairs(core.DefaultRepairBatch)
				close(planned)
			})
			<-planned
			if len(jobs) == 0 {
				break
			}
			results := h.rt.VerifyRepairsCtx(h.repairCtx, jobs, parallelism)
			committed := make(chan struct{})
			h.Enqueue(func() {
				h.rt.CommitRepairs(results)
				close(committed)
			})
			<-committed
		}
	}
}

// Stop shuts the host down: first the repair loop (it enqueues jobs,
// so it must exit before the queue closes), then the worker. The WAL
// segment stays open — in-flight appends have drained by the time Stop
// returns, and the coordinator closes the files last.
func (h *Host) Stop() {
	if h.repairQuit != nil {
		close(h.repairQuit)
		h.repairCancel() // abort an in-flight verification batch early
		<-h.repairDone
	}
	close(h.jobs)
	<-h.done
}

// CloseWAL closes the host's WAL segment if one is open: flushed (final
// fsync) when flush is true, raw otherwise — the crash-shaped path,
// where recovery must cope with exactly what the kernel happened to
// have. Safe to call with no open segment.
func (h *Host) CloseWAL(flush bool) error {
	if h.wal == nil {
		return nil
	}
	w := h.wal
	h.wal = nil
	if flush {
		return w.Close()
	}
	return w.CloseRaw()
}

// DurableEpoch is the newest epoch this shard can prove durable.
func (h *Host) DurableEpoch() uint64 { return h.durableEpoch.Load() }

// SetDurableEpoch seeds the durable-epoch claim at boot (everything
// replayed from disk is durable by definition).
func (h *Host) SetDurableEpoch(e uint64) { h.durableEpoch.Store(e) }

// NoteSnapshotDurable records that a complete snapshot generation at
// epoch is durable: the generation itself proves everything ≤ epoch
// durable, and the rotation anchored a fresh segment — any open
// durability gap is healed.
func (h *Host) NoteSnapshotDurable(epoch uint64) {
	storeMax(&h.durableEpoch, epoch)
	if h.volatileWAL.CompareAndSwap(true, false) {
		h.log.Warn("WAL durability gap healed by snapshot rotation",
			"shard", h.id, "epoch", epoch)
	}
}

// storeMax monotonically raises a to at least v.
func storeMax(a *atomic.Uint64, v uint64) {
	for {
		cur := a.Load()
		if cur >= v || a.CompareAndSwap(cur, v) {
			return
		}
	}
}
