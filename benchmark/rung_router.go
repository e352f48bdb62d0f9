package main

// Rung "router": the gcplus.Server facade — SubgraphQueryCtx,
// SupergraphQueryCtx, UpdateCtx. It is also the boundary the facade
// workloads are timed at.
//
// Pins: gcplus.NewServer, Server.SubgraphQueryCtx/SupergraphQueryCtx/
// UpdateCtx/Stats/Snapshot/Recovered/Close.

import (
	"context"
	"fmt"
	"time"

	"gcplus"
)

// serverOptions are the options the system under test runs with: shipped
// defaults (the zero value) apart from the shard count and, per workload,
// the transport and the data directory. A later change to a default shows
// up in the numbers; a knob nobody turns does not.
func serverOptions(nShards int, transport, dataDir string) gcplus.ServeOptions {
	return gcplus.ServeOptions{Shards: nShards, Transport: transport, DataDir: dataDir}
}

type serverTarget struct {
	srv *gcplus.Server
}

func newServerTarget(in *inputs, opts gcplus.ServeOptions) (*serverTarget, error) {
	srv, err := gcplus.NewServer(in.dataset, opts)
	if err != nil {
		return nil, err
	}
	return &serverTarget{srv: srv}, nil
}

func (t *serverTarget) Query(_ int, r *request, _ bool) (answer, error) {
	var (
		res *gcplus.ServerAnswer
		err error
	)
	if r.super {
		res, err = t.srv.SupergraphQueryCtx(context.Background(), r.q)
	} else {
		res, err = t.srv.SubgraphQueryCtx(context.Background(), r.q)
	}
	if err != nil {
		return answer{}, err
	}
	a := answer{
		ids: res.IDs, epoch: res.Epoch,
		tests: res.SubIsoTests, saved: res.TestsSaved, candidates: res.Candidates,
		zeroTest: res.ZeroTestShards == len(res.PerShard),
	}
	for i := range res.PerShard {
		a.hitCandidates += res.PerShard[i].HitCandidates
		a.hitScanned += res.PerShard[i].HitScanned
	}
	return a, nil
}

func (t *serverTarget) Update(_ int, b *batch, _ func(int, time.Duration)) (ack, error) {
	res, err := t.srv.UpdateCtx(context.Background(), b.ops)
	if err != nil {
		return ack{}, err
	}
	a := ack{epoch: res.Epoch, ids: make([]int, len(res.Ops))}
	for i, op := range res.Ops {
		if op.Err != nil {
			return a, &opError{op: i, err: op.Err.Error()}
		}
		a.ids[i] = op.ID
	}
	return a, nil
}

func (t *serverTarget) Close() error { return t.srv.Close() }

// routerRun is a router rung's result.
type routerRun struct {
	run            *rungRun
	shed, deadline int64         // admission sheds and expired deadlines, from Stats
	snapshot       time.Duration // Server.Snapshot() at the end (durable workloads)
}

func rungRouter(l *spanLog, c runConfig, in *inputs, nShards int, tmp string) (*routerRun, error) {
	layer := fmt.Sprintf("router.shards%d", nShards)
	t, err := newServerTarget(in, serverOptions(nShards, gcplus.TransportLocal, c.dataDir(tmp, layer)))
	if err != nil {
		return nil, err
	}
	defer t.Close()
	run, err := replay(l, c, in, t, replayOpts{layer: layer, parent: "http", n: c.w.replay})
	if err != nil {
		return nil, err
	}
	res := &routerRun{run: run}
	st, err := t.srv.Stats()
	if err != nil {
		return nil, err
	}
	res.shed, res.deadline = st.ShedQueries+st.ShedUpdates, st.DeadlineExceeded
	if c.w.durable {
		t0 := time.Now()
		if err := t.srv.Snapshot(); err != nil {
			return nil, err
		}
		res.snapshot = time.Since(t0)
		l.add("persist", "snapshot", layer, len(run.updateNS), t0, res.snapshot)
	}
	return res, nil
}
