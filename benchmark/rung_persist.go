package main

// Rung "persist": the WAL alone — the churn stream's batches, encoded as
// the shard host encodes them, appended to a fresh segment with fsync on.
//
// Pins: persist.CreateWAL, WAL.Append/Size/Close, persist.EncodeWALBatch,
// persist.WALBatch, persist.WALOp.

import (
	"path/filepath"
	"time"

	"gcplus/internal/dataset"
	"gcplus/internal/persist"
)

type persistRun struct {
	appendNS []int64
	bytes    int64
	ops      int
}

func rungPersist(l *spanLog, c runConfig, in *inputs, tmp string) (*persistRun, error) {
	wal, err := persist.CreateWAL(filepath.Join(tmp, "rung.wal"), 0, 0, true)
	if err != nil {
		return nil, err
	}
	run := &persistRun{}
	first := c.w.warmup / updateEvery
	nextID := len(in.dataset)
	for k := first; k < first+c.w.replay/updateEvery; k++ {
		b := &in.batches[k]
		wb := persist.WALBatch{Epoch: uint64(k - first + 1)}
		for _, op := range b.ops {
			gid := op.GraphID
			if op.Type == dataset.OpAdd {
				gid = nextID
				nextID++
			}
			wb.Ops = append(wb.Ops, persist.WALOp{Op: op, GlobalID: gid})
		}
		t0 := time.Now()
		payload, err := persist.EncodeWALBatch(&wb)
		if err == nil {
			err = wal.Append(payload)
		}
		d := time.Since(t0)
		if err != nil {
			wal.Close()
			return nil, err
		}
		run.appendNS = append(run.appendNS, int64(d))
		run.ops += len(b.ops)
		l.add("persist", "wal_append", "shardhost", k-first, t0, d)
	}
	run.bytes = wal.Size()
	return run, wal.Close()
}
