package router

import (
	"fmt"
	"sort"
	"time"

	"gcplus/internal/dataset"
	"gcplus/internal/persist"
	"gcplus/internal/shardhost"
)

// This file is the router side of the durability subsystem
// (internal/persist): WAL-append fan-out, snapshot generations, and
// recovery. The per-shard mechanics — batch accumulation,
// append retries, rotation, replay — live in internal/shardhost; the
// router sequences them across shards and owns the generation's files.
// See the persist package comment for the on-disk layout and the
// crash-safety argument.

// enqueueWALAppends dispatches, to every shard, the owner job that
// drains the batch's pending ops into one epoch-stamped frame and
// appends it (fsynced unless NoSync). Called with seqMu held
// exclusively, right after the batch's op jobs — the transport's
// synchronous ordering guarantees the pending list holds exactly this
// batch's applied ops when the job runs. Untouched shards log an empty
// frame, keeping per-shard epochs dense.
// The replies are returned alongside the ack channels so the update
// tracer can read the host-measured append latencies once every ack has
// been drained.
func (s *Server) enqueueWALAppends(epoch uint64) ([]<-chan error, []*shardhost.WALAppendReply) {
	acks := make([]<-chan error, len(s.clients))
	replies := make([]*shardhost.WALAppendReply, len(s.clients))
	for i, c := range s.clients {
		ch := make(chan error, 1)
		acks[i] = ch
		reply := new(shardhost.WALAppendReply)
		replies[i] = reply
		c.AppendWAL(epoch, reply, func() { ch <- reply.Err })
	}
	s.obs.noteTransport("append_wal", int64(len(s.clients)))
	return acks, replies
}

// scheduleSnapshotRetry arranges a background snapshot attempt after a
// backoff that doubles with consecutive generation failures, instead of
// waiting for the next SnapshotEvery trigger. At most one retry is
// pending at a time; a failed attempt re-schedules itself through the
// collector's failure path. Also the hosts' OnDurabilityGap callback:
// a shard that latches a WAL gap gets its healing rotation this way.
func (s *Server) scheduleSnapshotRetry() {
	if s.store == nil || !s.snapRetryPending.CompareAndSwap(false, true) {
		return
	}
	d := snapRetryCap
	if n := s.snapFailures.Load(); n < 6 {
		d = snapRetryBase << n
	}
	time.AfterFunc(d, func() {
		s.snapRetryPending.Store(false)
		// ErrClosed and repeat failures need no handling here: the
		// collector's failure path schedules the next retry.
		_ = s.Snapshot()
	})
}

// Snapshot forces a snapshot generation at the current epoch and waits
// until it is durable on every shard (or fails; a failed generation
// leaves the previous one and its WAL chain intact). It returns an
// error when persistence is not configured.
func (s *Server) Snapshot() error {
	if s.store == nil {
		return fmt.Errorf("serve: persistence is not configured")
	}
	s.snapMu.Lock() // lock order: snapMu before seqMu
	s.seqMu.RLock()
	if s.closed {
		s.seqMu.RUnlock()
		s.snapMu.Unlock()
		return ErrClosed
	}
	done := s.enqueueSnapshotLocked(s.epoch) // releases snapMu when done
	s.seqMu.RUnlock()
	return <-done
}

// maybeSnapshotLocked starts an asynchronous snapshot generation at
// epoch if none is in flight. Called from Update with seqMu held
// exclusively; TryLock keeps the writer path from ever blocking on an
// in-flight generation.
func (s *Server) maybeSnapshotLocked(epoch uint64) {
	if !s.snapMu.TryLock() {
		return
	}
	s.enqueueSnapshotLocked(epoch)
}

// enqueueSnapshotLocked dispatches one snapshot-export request per shard
// and spawns the collector that writes the generation's files. Caller
// holds snapMu and seqMu (either mode); holding seqMu across the
// dispatches is what makes the generation consistent — every shard
// exports at exactly the given epoch. The collector releases snapMu and
// reports on the returned channel.
//
// The shard host does the export and WAL rotation in owner context (see
// shardhost.Host.Snapshot); encoding and file IO run off the owner — on
// this collector for the local transport (reply.Snap), on the wire
// server's writer for loopback (reply.Payload arrives pre-encoded).
func (s *Server) enqueueSnapshotLocked(epoch uint64) <-chan error {
	done := make(chan error, 1)
	start := time.Now()
	replies := make([]shardhost.SnapshotReply, len(s.clients))
	acks := make(chan int, len(s.clients))
	for i, c := range s.clients {
		c.Snapshot(epoch, &replies[i], func() { acks <- 1 })
	}
	s.obs.noteTransport("snapshot", int64(len(s.clients)))
	go func() {
		defer s.snapMu.Unlock()
		for range s.clients {
			<-acks
		}
		var firstErr error
		for i := range replies {
			if err := replies[i].RotateErr; err != nil && firstErr == nil {
				firstErr = fmt.Errorf("serve: WAL rotation: %w", err)
			}
		}
		for i := range replies {
			if firstErr != nil {
				break
			}
			payload := replies[i].Payload
			if payload == nil {
				var err error
				payload, err = persist.EncodeShardSnapshot(replies[i].Snap)
				if err != nil {
					firstErr = fmt.Errorf("serve: snapshot shard %d: %w", i, err)
					break
				}
			}
			if err := persist.WriteSnapshotFileFS(s.store.FS(), s.store.SnapshotPath(i, epoch), i, payload); err != nil {
				firstErr = fmt.Errorf("serve: snapshot shard %d: %w", i, err)
			}
		}
		if firstErr == nil {
			s.store.RemoveObsolete(epoch)
			s.lastSnapshotEpoch.Store(epoch)
			s.snapshotsWritten.Add(1)
			s.snapFailures.Store(0)
			for _, h := range s.hosts {
				// The generation itself proves everything ≤ epoch durable,
				// and the rotation anchored a fresh segment — any open
				// durability gap is healed. This is an in-process seam:
				// the collector owns the files, so only it can know the
				// generation is complete across all shards.
				h.NoteSnapshotDurable(epoch)
			}
			if s.snapHist != nil {
				s.snapHist.Observe(time.Since(start))
			}
			s.log.Info("snapshot generation durable",
				"epoch", epoch, "wall", time.Since(start),
				"generations", s.snapshotsWritten.Load())
		} else {
			// Best-effort removal of the failed generation's files: a
			// stray snap-<epoch> surviving here could later pair with a
			// different attempt's files at the same epoch and
			// masquerade as a complete generation.
			for i := range s.hosts {
				s.store.FS().Remove(s.store.SnapshotPath(i, epoch))
			}
			s.snapFailures.Add(1)
			s.log.Error("snapshot generation failed", "epoch", epoch,
				"consecutive_failures", s.snapFailures.Load(), "err", firstErr)
			s.scheduleSnapshotRetry()
		}
		done <- firstErr
	}()
	return done
}

// Recovered reports whether this server booted by recovering a data
// directory, and if so how many live graphs it recovered and the epoch
// recovery reached after WAL replay.
func (s *Server) Recovered() (graphs int, epoch uint64, ok bool) {
	return s.recoveredGraphs, s.recoveredEpoch, s.recovered
}

// replayFrame is one decoded WAL batch plus where it lives on disk, so
// recovery can truncate the segment chain at the cross-shard
// consistency point.
type replayFrame struct {
	batch   *persist.WALBatch
	segBase uint64
	end     int64 // offset just past the frame within its segment
}

// recover restarts from the data directory: load the newest complete
// snapshot generation, replay each shard's WAL chain up to the newest
// batch durable on every shard, truncate the torn remainder, and rebuild
// the router-level id map and epoch. Every shard's cache starts empty
// and re-warms from queries. Recovery always drives the hosts directly —
// it is boot-time construction, before any transport client or host
// goroutine exists.
func (s *Server) recover() error {
	snaps, err := s.loadSnapshots()
	if err != nil {
		return err
	}
	snapEpoch := snaps[0].Epoch
	s.hosts = make([]*shardhost.Host, s.opts.Shards)
	s.shardNextLocal = make([]int, s.opts.Shards)
	for i, snap := range snaps {
		coreOpts, err := s.shardCoreOptions()
		if err != nil {
			return err
		}
		h, err := shardhost.NewOver(i, dataset.Restore(snap.Dataset), snap.LocalToGlobal, coreOpts, s.hostConfig())
		if err != nil {
			return err
		}
		s.hosts[i] = h
	}

	// Read each shard's segment chain: contiguous epochs starting at
	// snapEpoch+1, stopping at the first gap, torn frame or decode
	// failure. The newest batch durable on every shard is the minimum
	// of the per-shard chain ends — batches beyond it were never
	// acknowledged (their frames are not durable everywhere) and are
	// discarded exactly as if they had never happened.
	chains := make([][]replayFrame, len(s.hosts))
	safe := ^uint64(0)
	for i := range s.hosts {
		chain, err := s.readChain(i, snapEpoch)
		if err != nil {
			return err
		}
		chains[i] = chain
		last := snapEpoch
		if len(chain) > 0 {
			last = chain[len(chain)-1].batch.Epoch
		}
		if last < safe {
			safe = last
		}
	}

	for i, h := range s.hosts {
		for _, f := range chains[i] {
			if f.batch.Epoch > safe {
				break
			}
			if err := h.ReplayBatch(f.batch); err != nil {
				return fmt.Errorf("shard %d, batch %d: %w", i, f.batch.Epoch, err)
			}
		}
		if err := s.resetHostWAL(h, chains[i], snapEpoch, safe); err != nil {
			return err
		}
	}

	// Rebuild the global id map from the shard-local maps: every global
	// id ever assigned belongs to exactly one shard.
	total := 0
	for _, h := range s.hosts {
		total += len(h.LocalToGlobal())
	}
	s.loc = make([]location, total)
	seen := make([]bool, total)
	for sid, h := range s.hosts {
		l2g := h.LocalToGlobal()
		for local, gid := range l2g {
			if gid < 0 || gid >= total || seen[gid] {
				return fmt.Errorf("shard %d maps local %d to invalid or duplicate global id %d", sid, local, gid)
			}
			seen[gid] = true
			s.loc[gid] = location{shard: int32(sid), local: int32(local)}
		}
		s.shardNextLocal[sid] = len(l2g)
		s.recoveredGraphs += h.Dataset().LiveCount()
	}
	s.nextAdd = total
	s.epoch = safe
	s.recoveredEpoch = safe
	s.recovered = true
	s.lastSnapshotEpoch.Store(snapEpoch)
	for _, h := range s.hosts {
		// Everything replayed is durable by definition — it was read
		// back from disk.
		h.SetDurableEpoch(safe)
	}
	// Purge partial debris of generations newer than the recovery
	// point, so it can never pair up with a future generation attempt
	// at the same epoch.
	s.store.RemoveSnapshotsAfter(snapEpoch)
	return nil
}

// loadSnapshots decodes the newest complete snapshot generation. A
// decode failure is fatal, not a trigger to fall back to an older
// generation: the newest generation's WAL predecessors were deleted
// when it became durable, so booting from an older one would silently
// roll back batches that were fsynced and acknowledged — a loud
// refusal (operator restores from backup) is the only answer that
// keeps the durability contract honest.
func (s *Server) loadSnapshots() ([]*persist.ShardSnapshot, error) {
	gens := s.store.CompleteSnapshotEpochs()
	if len(gens) == 0 {
		return nil, fmt.Errorf("data directory holds state but no complete snapshot generation")
	}
	epoch := gens[0]
	snaps := make([]*persist.ShardSnapshot, s.opts.Shards)
	for i := range snaps {
		payload, err := persist.ReadSnapshotFileFS(s.store.FS(), s.store.SnapshotPath(i, epoch), i)
		if err == nil {
			snaps[i], err = persist.DecodeShardSnapshot(payload)
		}
		if err == nil && snaps[i].Epoch != epoch {
			err = fmt.Errorf("snapshot file claims epoch %d, name says %d", snaps[i].Epoch, epoch)
		}
		if err != nil {
			return nil, fmt.Errorf("newest snapshot generation %d is unreadable (shard %d): %w; refusing to roll back to an older generation", epoch, i, err)
		}
	}
	return snaps, nil
}

// readChain reads shard i's WAL segments from the snapshot epoch on,
// returning the contiguous batch chain. Unreadable or out-of-sequence
// tails are cut, not fatal — they are the expected debris of a crash.
func (s *Server) readChain(i int, snapEpoch uint64) ([]replayFrame, error) {
	segs := s.store.WALSegments(i)
	sort.Slice(segs, func(a, b int) bool { return segs[a] < segs[b] })
	var chain []replayFrame
	expect := snapEpoch + 1
	for _, base := range segs {
		if base < snapEpoch {
			continue // pre-generation segment awaiting cleanup
		}
		baseEpoch, frames, _, _, err := persist.ReadWALFileFS(s.store.FS(), s.store.WALPath(i, base), i)
		if err != nil {
			return nil, fmt.Errorf("shard %d, segment %d: %w", i, base, err)
		}
		if len(frames) == 0 {
			break // empty (possibly torn-header) segment ends the chain
		}
		if baseEpoch != base {
			return nil, fmt.Errorf("shard %d: segment file %d has base epoch %d", i, base, baseEpoch)
		}
		brokeChain := false
		for _, f := range frames {
			batch, err := persist.DecodeWALBatch(f.Payload)
			if err != nil || batch.Epoch != expect {
				brokeChain = true
				break // treat like a torn tail: keep the intact prefix
			}
			chain = append(chain, replayFrame{batch: batch, segBase: base, end: f.End})
			expect++
		}
		if brokeChain {
			break
		}
	}
	return chain, nil
}

// resetHostWAL puts one host's on-disk WAL in sync with the recovered
// state: the segment holding the last replayed batch is truncated just
// past it (cutting torn frames and discarded batches), later segments
// are removed, and the host's appender continues from there. With the
// WAL disabled, stale segments are left for the next snapshot's cleanup.
func (s *Server) resetHostWAL(h *shardhost.Host, chain []replayFrame, snapEpoch, safe uint64) error {
	if !s.walWanted() {
		return nil
	}
	keepBase, keepEnd := snapEpoch, int64(-1) // -1: start the base segment afresh
	for _, f := range chain {
		if f.batch.Epoch > safe {
			break
		}
		keepBase, keepEnd = f.segBase, f.end
	}
	for _, base := range s.store.WALSegments(h.ID()) {
		if base > keepBase {
			s.store.FS().Remove(s.store.WALPath(h.ID(), base))
		}
	}
	return h.ResetWAL(keepBase, keepEnd)
}
