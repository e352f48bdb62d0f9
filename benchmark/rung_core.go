package main

// Rung "core": one core.Runtime plus its cache behind the single-threaded
// gcplus.System facade, over the whole dataset, no shards and no goroutines.
//
// Pins: gcplus.Open, System.SubgraphQuery/SupergraphQuery,
// System.AddEdge/RemoveEdge/AddGraph/DeleteGraph, Result.IDs/Stats.

import (
	"fmt"
	"time"

	"gcplus"
	"gcplus/internal/dataset"
)

type systemTarget struct {
	sys   *gcplus.System
	epoch uint64
}

func (t *systemTarget) Query(_ int, r *request, _ bool) (answer, error) {
	var (
		res *gcplus.Result
		err error
	)
	if r.super {
		res, err = t.sys.SupergraphQuery(r.q)
	} else {
		res, err = t.sys.SubgraphQuery(r.q)
	}
	if err != nil {
		return answer{}, err
	}
	st := res.Stats()
	return answer{
		ids: res.IDs(), epoch: t.epoch,
		tests: st.SubIsoTests, saved: st.TestsSaved, candidates: st.CandidatesBefore,
		hitCandidates: st.HitCandidates, hitScanned: st.HitScanned,
		zeroTest: st.SubIsoTests == 0,
	}, nil
}

func (t *systemTarget) Update(_ int, b *batch, perOp func(int, time.Duration)) (ack, error) {
	a := ack{ids: make([]int, len(b.ops))}
	for i, op := range b.ops {
		var err error
		t0 := time.Now()
		a.ids[i] = op.GraphID
		switch op.Type {
		case dataset.OpAdd:
			a.ids[i], err = t.sys.AddGraph(op.Graph)
		case dataset.OpDelete:
			err = t.sys.DeleteGraph(op.GraphID)
		case dataset.OpUpdateAddEdge:
			err = t.sys.AddEdge(op.GraphID, op.U, op.V)
		case dataset.OpUpdateRemoveEdge:
			err = t.sys.RemoveEdge(op.GraphID, op.U, op.V)
		}
		if perOp != nil {
			perOp(i, time.Since(t0))
		}
		if err != nil {
			return a, fmt.Errorf("op %d (%s): %w", i, op.Type, err)
		}
	}
	t.epoch++
	a.epoch = t.epoch
	return a, nil
}

func (t *systemTarget) Close() error { return nil }

func rungCore(l *spanLog, c runConfig, in *inputs) (*rungRun, error) {
	sys, err := gcplus.Open(in.dataset, gcplus.Options{})
	if err != nil {
		return nil, err
	}
	return replay(l, c, in, &systemTarget{sys: sys}, replayOpts{layer: "core", parent: "shardhost", n: c.w.replay})
}
