package main

// Rung "repair": a bare core.Runtime on the churn stream, its repair queue
// drained to empty on the caller's goroutine after every batch — plan,
// verify with one worker, commit. It prices a restored validity bit and
// shows how much validity repair can win back when it always keeps up.
//
// Pins: core.NewRuntime, Runtime.SubgraphQuery/SupergraphQuery/Sync/
// PlanRepairs/VerifyRepairs/CommitRepairs/CacheStats/ValidityRatio,
// core.DefaultRepairBatch, dataset.New and its Add/Delete/UpdateAddEdge/
// UpdateRemoveEdge.

import (
	"fmt"
	"time"

	"gcplus/internal/cache"
	"gcplus/internal/core"
	"gcplus/internal/dataset"
	"gcplus/internal/router"
	"gcplus/internal/subiso"
)

type runtimeTarget struct {
	ds      *dataset.Dataset
	rt      *core.Runtime
	epoch   uint64
	drainNS int64
}

func (t *runtimeTarget) Query(_ int, r *request, _ bool) (answer, error) {
	var (
		res *core.Result
		err error
	)
	if r.super {
		res, err = t.rt.SupergraphQuery(r.q)
	} else {
		res, err = t.rt.SubgraphQuery(r.q)
	}
	if err != nil {
		return answer{}, err
	}
	st := &res.Stats
	return answer{
		ids: res.AnswerIDs(), epoch: t.epoch,
		tests: st.SubIsoTests, saved: st.TestsSaved, candidates: st.CandidatesBefore,
		zeroTest: st.SubIsoTests == 0,
	}, nil
}

func (t *runtimeTarget) Update(_ int, b *batch, _ func(int, time.Duration)) (ack, error) {
	a := ack{ids: make([]int, len(b.ops))}
	for i, op := range b.ops {
		var err error
		a.ids[i] = op.GraphID
		switch op.Type {
		case dataset.OpAdd:
			a.ids[i], err = t.ds.Add(op.Graph)
		case dataset.OpDelete:
			err = t.ds.Delete(op.GraphID)
		case dataset.OpUpdateAddEdge:
			err = t.ds.UpdateAddEdge(op.GraphID, op.U, op.V)
		case dataset.OpUpdateRemoveEdge:
			err = t.ds.UpdateRemoveEdge(op.GraphID, op.U, op.V)
		}
		if err != nil {
			return a, fmt.Errorf("op %d (%s): %w", i, op.Type, err)
		}
	}
	t.epoch++
	a.epoch = t.epoch
	// Validation is lazy; Sync runs it now so the batch's invalidated
	// pairs are in the queue, then the queue is drained.
	t.rt.Sync()
	t0 := time.Now()
	for {
		jobs := t.rt.PlanRepairs(core.DefaultRepairBatch)
		if len(jobs) == 0 {
			break
		}
		t.rt.CommitRepairs(t.rt.VerifyRepairs(jobs, 1))
	}
	t.drainNS += int64(time.Since(t0))
	return a, nil
}

func (t *runtimeTarget) Close() error { return nil }

type repairRun struct {
	run          *rungRun
	drainNS      int64
	repairedBits int64
	validityEnd  float64
}

func rungRepair(l *spanLog, c runConfig, in *inputs) (*repairRun, error) {
	algo, err := subiso.New("VF2")
	if err != nil {
		return nil, err
	}
	ds := dataset.New(in.dataset)
	rt, err := core.NewRuntime(ds, core.Options{
		Algorithm: algo,
		Cache:     &cache.Config{RepairQueue: router.DefaultRepairQueue},
	})
	if err != nil {
		return nil, err
	}
	t := &runtimeTarget{ds: ds, rt: rt}
	run, err := replay(l, c, in, t, replayOpts{layer: "core.repair", parent: "shardhost", n: c.w.replay})
	if err != nil {
		return nil, err
	}
	return &repairRun{
		run: run, drainNS: t.drainNS,
		repairedBits: rt.CacheStats().RepairedBits, validityEnd: rt.ValidityRatio(),
	}, nil
}
