package main

// Rung "shardhost": one shardhost.Host — the owner goroutine, its job queue
// and the background repair loop — over the whole dataset, driven through
// the ShardService calls the router makes: Query, ApplyOp, AppendWAL. The
// transport rungs drive the same calls through a ShardClient, so they share
// this file's target.
//
// Pins: shardhost.New, Host.Start/Stop/Query/ApplyOp/AppendWAL/Snapshot/
// CloseWAL, shardhost.Config, persist.OpenStore, core.Options,
// router.DefaultRepairQueue, router.ResolveVerifyParallelism.

import (
	"context"
	"fmt"
	"time"

	"gcplus/internal/cache"
	"gcplus/internal/core"
	"gcplus/internal/dataset"
	"gcplus/internal/persist"
	"gcplus/internal/router"
	"gcplus/internal/shardhost"
	"gcplus/internal/subiso"
)

// shardService is the part of the ShardService contract the ladder drives;
// *shardhost.Host and both transport clients provide it.
type shardService interface {
	Query(ctx context.Context, req *shardhost.QueryRequest, reply *shardhost.QueryReply, done func())
	ApplyOp(req *shardhost.OpRequest, reply *shardhost.OpReply, done func())
	AppendWAL(epoch uint64, reply *shardhost.WALAppendReply, done func())
}

// hostStack is one started host and, for durable workloads, its store.
type hostStack struct {
	host  *shardhost.Host
	store *persist.Store
}

// newHostStack builds the host the router would build for a one-shard
// server at shipped defaults: VF2, default cache with the repair queue on,
// one repair worker, and — with dir set — a WAL that fsyncs every frame.
func newHostStack(in *inputs, dir string) (*hostStack, error) {
	algo, err := subiso.New("VF2")
	if err != nil {
		return nil, err
	}
	opts := core.Options{
		Algorithm:         algo,
		VerifyParallelism: router.ResolveVerifyParallelism(0, 1),
		Cache:             &cache.Config{RepairQueue: router.DefaultRepairQueue},
	}
	hs := &hostStack{}
	cfg := shardhost.Config{}
	if dir != "" {
		if hs.store, err = persist.OpenStore(dir, 1); err != nil {
			return nil, err
		}
		cfg = shardhost.Config{Store: hs.store, WAL: true, WALPolicy: router.WALPolicyFailUpdate, FailUpdateOnGap: true}
	}
	gids := make([]int, len(in.dataset))
	for i := range gids {
		gids[i] = i
	}
	if hs.host, err = shardhost.New(0, in.dataset, gids, opts, cfg); err != nil {
		hs.close()
		return nil, err
	}
	hs.host.Start(router.ResolveRepairParallelism(0, true))
	if dir != "" {
		// The router's cold boot ends with a snapshot generation; its
		// rotation is what opens the first WAL segment.
		var reply shardhost.SnapshotReply
		done := make(chan struct{})
		hs.host.Snapshot(0, &reply, func() { close(done) })
		<-done
		if reply.RotateErr != nil {
			hs.close()
			return nil, reply.RotateErr
		}
	}
	return hs, nil
}

func (hs *hostStack) close() error {
	var err error
	if hs.host != nil {
		hs.host.Stop()
		err = hs.host.CloseWAL(true)
	}
	if hs.store != nil {
		hs.store.Close()
	}
	return err
}

// shardTarget drives a shardService the way the router drives one shard.
type shardTarget struct {
	svc     shardService
	durable bool
	epoch   uint64
	nextID  int     // id the next ADD receives (one shard: local id = global id)
	walNS   []int64 // AppendWAL call→done, per measured batch
	cleanup func() error
}

func (t *shardTarget) Query(_ int, r *request, _ bool) (answer, error) {
	req := shardhost.QueryRequest{Kind: cache.KindSub, Query: r.q}
	if r.super {
		req.Kind = cache.KindSuper
	}
	var reply shardhost.QueryReply
	done := make(chan struct{})
	t.svc.Query(context.Background(), &req, &reply, func() { close(done) })
	<-done
	if reply.Err != nil {
		return answer{}, reply.Err
	}
	st := &reply.Stats
	return answer{
		ids: reply.IDs, epoch: t.epoch,
		tests: st.SubIsoTests, saved: st.TestsSaved, candidates: st.CandidatesBefore,
		hitCandidates: st.HitCandidates, hitScanned: st.HitScanned,
		zeroTest: st.SubIsoTests == 0,
	}, nil
}

func (t *shardTarget) Update(_ int, b *batch, perOp func(int, time.Duration)) (ack, error) {
	a := ack{ids: make([]int, len(b.ops))}
	for i, op := range b.ops {
		req := shardhost.OpRequest{Op: op, GlobalID: op.GraphID}
		if op.Type == dataset.OpAdd {
			req.GlobalID = t.nextID
			t.nextID++
		}
		var reply shardhost.OpReply
		done := make(chan struct{})
		t0 := time.Now()
		t.svc.ApplyOp(&req, &reply, func() { close(done) })
		<-done
		if perOp != nil {
			perOp(i, time.Since(t0))
		}
		if reply.Err != nil {
			return a, fmt.Errorf("op %d (%s): %w", i, op.Type, reply.Err)
		}
		a.ids[i] = reply.ID
	}
	t.epoch++
	a.epoch = t.epoch
	if t.durable {
		var reply shardhost.WALAppendReply
		done := make(chan struct{})
		t0 := time.Now()
		t.svc.AppendWAL(t.epoch, &reply, func() { close(done) })
		<-done
		if perOp != nil { // measured batches only, like the per-op timings
			t.walNS = append(t.walNS, int64(time.Since(t0)))
		}
		if reply.Err != nil {
			return a, reply.Err
		}
	}
	return a, nil
}

func (t *shardTarget) Close() error { return t.cleanup() }

// shardRun is a shardTarget rung's result.
type shardRun struct {
	run   *rungRun
	walNS []int64
}

func runShardRung(l *spanLog, c runConfig, in *inputs, t *shardTarget, layer, parent string) (*shardRun, error) {
	t.durable, t.nextID = c.w.durable, len(in.dataset)
	run, err := replay(l, c, in, t, replayOpts{layer: layer, parent: parent, n: c.w.replay})
	if cerr := t.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	return &shardRun{run: run, walNS: t.walNS}, nil
}

func rungShardhost(l *spanLog, c runConfig, in *inputs, tmp string) (*shardRun, error) {
	hs, err := newHostStack(in, c.dataDir(tmp, "shardhost"))
	if err != nil {
		return nil, err
	}
	return runShardRung(l, c, in, &shardTarget{svc: hs.host, cleanup: hs.close}, "shardhost", "transport.local")
}
