package shardhost

import (
	"context"
	"fmt"
	"time"

	"gcplus/internal/cache"
	"gcplus/internal/changeplan"
	"gcplus/internal/core"
	"gcplus/internal/dataset"
	"gcplus/internal/graph"
	"gcplus/internal/persist"
)

// This file is the ShardService contract: the request/reply vocabulary
// and the service methods every transport carries. Each method enqueues
// one owner job *synchronously* — the per-shard call order is fixed the
// moment the method returns, which is the property the router's epoch
// sequencing depends on — fills the caller-owned reply, and invokes
// done exactly once when the job completes. Replies are plain data so a
// wire transport can encode them; errors cross the seam as values in
// the reply, classified by the internal/transport status table.

// QueryRequest asks the shard for its partition's answer to one
// sub/supergraph containment query.
type QueryRequest struct {
	// Kind selects sub or super containment.
	Kind cache.Kind
	// Query is the pattern graph (treated as immutable).
	Query *graph.Graph
	// Opts carries the per-query execution options, all of which cross
	// a wire transport. A non-zero Opts.TraceID is the sampled trace the
	// query belongs to: the shard cites it as the exemplar on its
	// queue-wait and stage histograms.
	Opts core.QueryOptions
}

// QueryReply is the shard's answer.
type QueryReply struct {
	// IDs is the shard's answer set as ascending global graph ids
	// (translated host-side through the shard's local→global map).
	IDs []int
	// Stats is the shard runtime's per-query execution breakdown.
	Stats core.QueryStats
	// Err is the per-shard failure (typically a *core.CancelError).
	Err error
	// HostNanos is the host-measured wall time from the service call to
	// the reply being ready — queue wait plus execution. A transport's
	// round trip minus HostNanos is the pure transport overhead, which
	// is how the router computes the trace's transport_us.
	HostNanos int64
	// QueueNanos is the measured wait in the shard's owner queue —
	// HostNanos minus execution. Always filled, so the router can report
	// per-shard queue pressure for untraced queries too.
	QueueNanos int64
}

// OpRequest applies one dataset change operation to the shard. The
// router resolves placement: for ADD the graph rides in Op.Graph (the
// host assigns the next local id and records GlobalID in its map); for
// DEL/UA/UR Op.GraphID is already the shard-local id.
type OpRequest struct {
	Op       changeplan.Op
	GlobalID int
}

// OpReply reports one operation's outcome: the global id on success
// (ADD echoes the assigned id), -1 and Err on failure.
type OpReply struct {
	ID  int
	Err error
}

// WALAppendReply acknowledges one epoch's WAL frame per the host's
// append-failure policy.
type WALAppendReply struct {
	Err error
	// Nanos is the measured append latency (encode + write + fsync and
	// any in-place retries); zero when the append never ran (gap open,
	// missing segment). The router turns it into the update trace's
	// per-shard wal_append span.
	Nanos int64
}

// SnapshotReply carries one shard's export for a snapshot generation.
// Exactly one of Snap (in-process transports: the raw export, encoded
// by the collector off the owner goroutine) or Payload (wire
// transports: already encoded host-side) is set on success.
type SnapshotReply struct {
	Snap    *persist.ShardSnapshot
	Payload []byte
	// RotateErr reports a failed WAL rotation; the export may still be
	// absent in that case and the generation must be abandoned.
	RotateErr error
}

// StatsReply is one shard's statistics snapshot, taken in owner context
// so it is consistent with the job stream. Field names mirror the
// router's per-shard stats surface; json tags make the reply portable
// over control-plane transports without a hand-rolled codec.
type StatsReply struct {
	LiveGraphs      int                  `json:"live_graphs"`
	LogSeq          uint64               `json:"log_seq"`
	HitRate         float64              `json:"hit_rate"`
	ValidityRatio   float64              `json:"validity_ratio"`
	QueueLen        int                  `json:"queue_len"`
	WALBytes        int64                `json:"wal_bytes"`
	WALAppends      int64                `json:"wal_appends"`
	WALAppendErrors int64                `json:"wal_append_errors"`
	Metrics         core.MetricsSnapshot `json:"metrics"`
	Cache           cache.Stats          `json:"cache"`
	DurableEpoch    uint64               `json:"durable_epoch"`
	VolatileWAL     bool                 `json:"volatile_wal"`
	// Err is the transport-level failure slot: never set by the host,
	// filled by a wire client whose request could not complete.
	Err error `json:"-"`
}

// Query runs one containment query against the shard partition. The
// reply's IDs are global, ascending; with Opts.Limit set the shard
// streams verification in ascending id order and stops after Limit
// local answers (the PR-8 streaming contract the router's global
// prefix cut depends on). ctx expiry aborts at the next cooperative
// checkpoint; a request that expired before its job started fails with
// stage "queue".
func (h *Host) Query(ctx context.Context, req *QueryRequest, reply *QueryReply, done func()) {
	at := h.now()
	h.EnqueueTimed(func(wait time.Duration) {
		reply.QueueNanos = int64(wait)
		h.queueWait.SetExemplar(wait, req.Opts.TraceID)
		defer func() {
			if d := h.now().Sub(at); d > 0 {
				reply.HostNanos = int64(d)
			}
			done()
		}()
		if ctx != nil {
			select {
			case <-ctx.Done():
				// Expired while waiting in the shard queue.
				reply.Err = &core.CancelError{Stage: "queue", Err: ctx.Err()}
				return
			default:
			}
		}
		var res *core.Result
		var err error
		if req.Kind == cache.KindSub {
			res, err = h.rt.SubgraphQueryCtx(ctx, req.Query, req.Opts)
		} else {
			res, err = h.rt.SupergraphQueryCtx(ctx, req.Query, req.Opts)
		}
		if err != nil {
			reply.Err = err
			return
		}
		// Global ids straight from the answer bitset: local ids ascend,
		// and so do their global ids, so the reply needs no sort.
		ids := make([]int, 0, res.Answer.Count())
		res.Answer.ForEach(func(l int) bool {
			ids = append(ids, h.localToGlobal[l])
			return true
		})
		reply.IDs = ids
		reply.Stats = res.Stats
	})
}

// ApplyOp applies one routed operation in owner context, maintaining
// the local→global map and accumulating the op into the pending WAL
// batch when logging is on.
func (h *Host) ApplyOp(req *OpRequest, reply *OpReply, done func()) {
	op, gid := req.Op, req.GlobalID
	h.Enqueue(func() {
		defer done()
		if op.Type == dataset.OpAdd {
			local, err := h.ds.Add(op.Graph)
			if err == nil && local != len(h.localToGlobal) {
				// Cannot happen while all ADDs flow through this path;
				// fail loudly rather than corrupt the id translation.
				err = fmt.Errorf("serve: shard %d local id %d out of step (want %d)",
					h.id, local, len(h.localToGlobal))
			}
			if err != nil {
				reply.ID, reply.Err = -1, err
				return
			}
			h.localToGlobal = append(h.localToGlobal, gid)
			if h.wal != nil {
				h.walPending = append(h.walPending,
					persist.WALOp{Op: changeplan.AddOp(op.Graph), GlobalID: gid})
			}
			reply.ID = gid
			return
		}
		local := op.GraphID
		var err error
		switch op.Type {
		case dataset.OpDelete:
			err = h.ds.Delete(local)
		case dataset.OpUpdateAddEdge:
			err = h.ds.UpdateAddEdge(local, op.U, op.V)
		case dataset.OpUpdateRemoveEdge:
			err = h.ds.UpdateRemoveEdge(local, op.U, op.V)
		default:
			err = fmt.Errorf("serve: unknown op type %v", op.Type)
		}
		if err != nil {
			// Shard errors speak in shard-local ids; re-anchor them to
			// the global id the caller used.
			reply.ID = -1
			reply.Err = fmt.Errorf("serve: %s on graph %d (shard %d, local %d): %w",
				op.Type, gid, h.id, local, err)
			return
		}
		if h.wal != nil {
			// Logged in shard-local id space — replay applies ops
			// straight to the shard dataset.
			lop := changeplan.Op{Type: op.Type, GraphID: local, U: op.U, V: op.V}
			h.walPending = append(h.walPending, persist.WALOp{Op: lop, GlobalID: gid})
		}
		reply.ID = gid
	})
}

// Sync enqueues one cache-reconciliation sweep (CON validation or EVI
// purge against the shard's log suffix). done may be nil for
// fire-and-forget sweeps whose effect is ordered by the queue itself.
func (h *Host) Sync(done func()) {
	h.Enqueue(func() {
		h.rt.Sync()
		if done != nil {
			done()
		}
	})
}

// walAppendRetries bounds the in-place retries of a rolled-back WAL
// append before the failure policy applies; with walRetryBase doubling
// per attempt the owner goroutine blocks at most ~2·walRetryBase·2^n.
const (
	walAppendRetries = 3
	walRetryBase     = time.Millisecond
)

// AppendWAL drains the pending batch ops into one epoch-stamped frame
// and appends it (fsynced unless Config.NoSync). The router calls it on
// every shard — touched or not — right after a batch's op jobs; FIFO
// order guarantees the pending list holds exactly that batch's applied
// ops when the job runs, and untouched shards log an empty frame,
// keeping per-shard epochs dense. A failure that survives the bounded
// in-place retries opens a durability gap resolved per the configured
// WAL policy.
func (h *Host) AppendWAL(epoch uint64, reply *WALAppendReply, done func()) {
	h.Enqueue(func() {
		defer done()
		batch := persist.WALBatch{Epoch: epoch, Ops: h.walPending}
		h.walPending = nil
		if h.wal == nil {
			h.walAppendErrors.Add(1)
			reply.Err = fmt.Errorf("serve: shard %d has no open WAL segment", h.id)
			return
		}
		if h.volatileWAL.Load() {
			// A durability gap is already open: recovery replays only a
			// contiguous epoch chain, so frames appended past the gap can
			// never prove anything durable. Don't pretend — resolve per
			// policy and wait for rotation to heal.
			h.walAppendErrors.Add(1)
			if !h.cfg.FailUpdateOnGap {
				return
			}
			reply.Err = fmt.Errorf("serve: shard %d WAL has a durability gap since batch %d; awaiting snapshot rotation", h.id, h.walGapEpoch)
			return
		}
		at := time.Now()
		payload, err := persist.EncodeWALBatch(&batch)
		if err == nil {
			err = h.wal.Append(payload)
			// Bounded in-place retries: a retryable failure means the
			// appender rolled the segment back to the previous frame
			// boundary, so the same frame can simply be written again
			// after an exponential backoff. The jitter is derived
			// deterministically from (epoch, shard, attempt) so chaos
			// runs replay bit-identically from their seed.
			for attempt := 0; err != nil && persist.IsRetryableAppend(err) && attempt < walAppendRetries; attempt++ {
				d := walRetryBase << attempt
				d += time.Duration((epoch*2654435761 + uint64(h.id)*7919 + uint64(attempt)*104729) % uint64(walRetryBase))
				time.Sleep(d)
				err = h.wal.Append(payload)
			}
		}
		// The append latency is dominated by the fsync (unless NoSync) —
		// the per-batch durability price the histogram exists to expose.
		d := time.Since(at)
		h.walAppend.Observe(d)
		reply.Nanos = int64(d)
		h.walAppends.Add(1)
		if err == nil {
			storeMax(&h.durableEpoch, epoch)
			return
		}
		h.walAppendErrors.Add(1)
		h.noteWALGap(epoch, err)
		if h.cfg.FailUpdateOnGap {
			reply.Err = err
		}
	})
}

// noteWALGap latches the durability gap after a final (post-retry)
// append failure: an edge-triggered alarm fires once, the shard's
// durable-epoch claim freezes, and the coordinator is asked to schedule
// a healing snapshot rotation. Runs on the owner goroutine (walGapEpoch
// is owner state).
func (h *Host) noteWALGap(epoch uint64, cause error) {
	if !h.volatileWAL.Swap(true) {
		h.walGapEpoch = epoch
		h.log.Error("WAL durability gap opened",
			"shard", h.id, "epoch", epoch, "policy", h.cfg.WALPolicy, "err", cause)
	}
	if h.cfg.OnDurabilityGap != nil {
		h.cfg.OnDurabilityGap()
	}
}

// Snapshot exports the shard's state for a snapshot generation at
// epoch, doing two things back to back in owner context: export the
// dataset and id map (cheap: graph pointers are shared), and rotate the
// WAL so the new segment's frames are exactly the batches after this
// generation. The cache is not exported: a restarted shard starts with
// an empty one. Encoding and file IO happen off the owner —
// collector-side for in-process transports, writer-side for wire
// transports.
func (h *Host) Snapshot(epoch uint64, reply *SnapshotReply, done func()) {
	h.Enqueue(func() {
		defer done()
		l2g := make([]int, len(h.localToGlobal))
		copy(l2g, h.localToGlobal)
		reply.Snap = &persist.ShardSnapshot{
			Epoch:         epoch,
			Dataset:       h.ds.Export(),
			LocalToGlobal: l2g,
		}
		if h.cfg.WAL {
			// Rotation also heals a missing or poisoned segment from an
			// earlier failed append or rotation — every generation
			// retries, so a transient disk error does not disable
			// logging for the process's lifetime.
			if h.wal != nil {
				if err := h.wal.Close(); err != nil && !h.volatileWAL.Load() {
					// A clean segment must flush before rotation; a
					// gapped one is already useless for replay, so its
					// close failure must not fail the generation that
					// exists to heal it.
					reply.RotateErr = err
				}
				h.wal = nil
			}
			w, err := persist.CreateWALFS(h.cfg.Store.FS(), h.cfg.Store.WALPath(h.id, epoch), h.id, epoch, !h.cfg.NoSync)
			if err != nil {
				// Fail loudly on the next update rather than drop batches
				// silently: AppendWAL errors on a nil segment.
				reply.RotateErr = err
				return
			}
			h.wal = w
		}
	})
}

// Stats fills one shard's statistics snapshot in owner context.
func (h *Host) Stats(reply *StatsReply, done func()) {
	h.Enqueue(func() {
		defer done()
		m := h.rt.Metrics()
		*reply = StatsReply{
			LiveGraphs:      h.ds.LiveCount(),
			LogSeq:          h.ds.Seq(),
			HitRate:         m.HitRate(),
			ValidityRatio:   h.rt.ValidityRatio(),
			QueueLen:        len(h.jobs),
			WALAppends:      h.walAppends.Load(),
			WALAppendErrors: h.walAppendErrors.Load(),
			Metrics:         m.Snapshot(),
			Cache:           h.rt.CacheStats(),
			DurableEpoch:    h.durableEpoch.Load(),
			VolatileWAL:     h.volatileWAL.Load(),
		}
		if h.wal != nil {
			reply.WALBytes = h.wal.Size()
		}
	})
}

// ReplayBatch applies one logged batch to the shard during
// recovery: ops run through the existing executor against the shard
// dataset, in shard-local id space, and ADDs extend the local→global
// map with their logged global ids. Every logged op applied once
// before, so a replay failure means corruption and is fatal. Boot-time
// only (the worker is not running yet).
func (h *Host) ReplayBatch(b *persist.WALBatch) error {
	for _, wop := range b.Ops {
		if wop.Op.Type == dataset.OpAdd {
			local, err := h.ds.Add(wop.Op.Graph)
			if err != nil {
				return err
			}
			if local != len(h.localToGlobal) {
				return fmt.Errorf("replayed ADD got local id %d, want %d", local, len(h.localToGlobal))
			}
			h.localToGlobal = append(h.localToGlobal, wop.GlobalID)
			continue
		}
		if _, err := wop.Op.Apply(h.ds); err != nil {
			return err
		}
	}
	return nil
}

// ResetWAL puts the shard's on-disk WAL in sync with recovered state:
// the appender continues in the segment based at keepBase, truncated at
// keepEnd (just past the last replayed frame), or a fresh segment when
// keepEnd < 0 (no replayed frame lives in a segment — it may not exist,
// or hold only discarded frames). Boot-time only.
func (h *Host) ResetWAL(keepBase uint64, keepEnd int64) error {
	path := h.cfg.Store.WALPath(h.id, keepBase)
	if keepEnd < 0 {
		w, err := persist.CreateWALFS(h.cfg.Store.FS(), path, h.id, keepBase, !h.cfg.NoSync)
		if err != nil {
			return err
		}
		h.wal = w
		return nil
	}
	w, err := persist.OpenWALAppendFS(h.cfg.Store.FS(), path, h.id, keepEnd, !h.cfg.NoSync)
	if err != nil {
		return err
	}
	h.wal = w
	return nil
}
