package persist

import (
	"fmt"

	"gcplus/internal/changeplan"
	"gcplus/internal/dataset"
	"gcplus/internal/graph"
	"gcplus/internal/wire"
)

// Payload codecs for the two frame kinds: WAL batches and shard
// snapshots. Everything is internal/wire values — uvarints, flag bytes
// and length-prefixed graph blobs in the text codec (internal/graph) —
// with no reflection and no allocation surprises; decoders fail loudly
// on any inconsistency, so the fuzz targets (FuzzWALDecode,
// FuzzShardSnapshotDecode) can assert they never panic on corrupt input.

func decodeGraph(d *wire.Dec) *graph.Graph {
	blob := d.Bytes()
	if d.Err() != nil {
		return nil
	}
	g, err := graph.Unmarshal(blob)
	if err != nil {
		d.Fail("graph blob: %v", err)
		return nil
	}
	return g
}

// WALOp is one logged operation: the resolved op in shard-local id space
// plus the global id the serving layer assigned (ADD) or targeted
// (DEL/UA/UR), so replay can rebuild the global id map.
type WALOp struct {
	Op       changeplan.Op
	GlobalID int
}

// WALBatch is one WAL frame's payload: the shard's share of one update
// batch. Ops is empty for batches that did not touch the shard — the
// frame still exists, keeping per-shard epochs dense (see the package
// comment's crash-safety argument).
type WALBatch struct {
	Epoch uint64
	Ops   []WALOp
}

// EncodeWALBatch serializes a batch into a frame payload.
func EncodeWALBatch(b *WALBatch) ([]byte, error) {
	buf := wire.AppendUvarint(nil, b.Epoch)
	buf = wire.AppendUvarint(buf, uint64(len(b.Ops)))
	for _, op := range b.Ops {
		if op.GlobalID < 0 {
			return nil, fmt.Errorf("persist: negative global id %d in WAL batch", op.GlobalID)
		}
		buf = wire.AppendUvarint(buf, uint64(op.GlobalID))
		var err error
		if buf, err = op.Op.AppendBinary(buf); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// DecodeWALBatch parses a frame payload produced by EncodeWALBatch.
func DecodeWALBatch(payload []byte) (*WALBatch, error) {
	d := wire.NewDec("persist", payload)
	b := &WALBatch{Epoch: d.Uvarint()}
	n := d.Count(2)
	for i := 0; i < n && d.Err() == nil; i++ {
		gid := d.Uvarint()
		op := changeplan.DecodeOp(&d)
		b.Ops = append(b.Ops, WALOp{Op: op, GlobalID: int(gid)})
	}
	if err := d.Finish("WAL batch"); err != nil {
		return nil, err
	}
	return b, nil
}

// ShardSnapshot is one shard's durable state at an epoch: the dataset
// and the id map. The cache is soft state — it re-warms from queries
// after a restart — so it is not part of a snapshot.
type ShardSnapshot struct {
	// Epoch is the server dataset version the snapshot reflects.
	Epoch uint64
	// Dataset is the shard's dataset table and log position.
	Dataset *dataset.Snapshot
	// LocalToGlobal maps every shard-local graph id (live or deleted)
	// to its global id.
	LocalToGlobal []int
}

// EncodeShardSnapshot serializes a shard snapshot into a frame payload.
func EncodeShardSnapshot(s *ShardSnapshot) ([]byte, error) {
	buf := wire.AppendUvarint(nil, s.Epoch)
	buf = wire.AppendUvarint(buf, s.Dataset.Seq)
	buf = wire.AppendUvarint(buf, uint64(len(s.Dataset.Graphs)))
	for _, g := range s.Dataset.Graphs {
		if g == nil {
			buf = append(buf, 0)
			continue
		}
		buf = append(buf, 1)
		buf = wire.AppendBytes(buf, graph.Marshal(g))
	}
	buf = wire.AppendUvarint(buf, uint64(len(s.LocalToGlobal)))
	for _, gid := range s.LocalToGlobal {
		if gid < 0 {
			return nil, fmt.Errorf("persist: negative global id %d in localToGlobal", gid)
		}
		buf = wire.AppendUvarint(buf, uint64(gid))
	}
	return buf, nil
}

// DecodeShardSnapshot parses a frame payload produced by
// EncodeShardSnapshot.
func DecodeShardSnapshot(payload []byte) (*ShardSnapshot, error) {
	d := wire.NewDec("persist", payload)
	s := &ShardSnapshot{Epoch: d.Uvarint(), Dataset: &dataset.Snapshot{Seq: d.Uvarint()}}
	s.Dataset.Graphs = make([]*graph.Graph, d.Count(1))
	for i := 0; i < len(s.Dataset.Graphs) && d.Err() == nil; i++ {
		if d.Bool() {
			s.Dataset.Graphs[i] = decodeGraph(&d)
		}
	}
	s.LocalToGlobal = make([]int, d.Count(1))
	for i := range s.LocalToGlobal {
		s.LocalToGlobal[i] = int(d.Uvarint())
	}
	if err := d.Finish("shard snapshot"); err != nil {
		return nil, err
	}
	return s, nil
}
