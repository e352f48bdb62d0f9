package persist

import (
	"fmt"

	"gcplus/internal/bitset"
	"gcplus/internal/cache"
	"gcplus/internal/changeplan"
	"gcplus/internal/core"
	"gcplus/internal/dataset"
	"gcplus/internal/graph"
	"gcplus/internal/wire"
)

// Payload codecs for the two frame kinds: WAL batches and shard
// snapshots. Everything is internal/wire values — uvarints, float64 bit
// patterns and length-prefixed graph blobs in the text codec
// (internal/graph) — with no reflection and no allocation surprises;
// decoders fail loudly on any inconsistency, so the fuzz target
// (FuzzWALDecode) can assert they never panic on corrupt input.

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

func decodeBitset(d *wire.Dec) *bitset.Set {
	n := d.Count(8)
	if d.Err() != nil {
		return nil
	}
	words := make([]uint64, n)
	for i := range words {
		words[i] = d.Uint64()
	}
	return bitset.FromWords(words)
}

func appendBitset(buf []byte, s *bitset.Set) []byte {
	words := s.Words()
	buf = wire.AppendUvarint(buf, uint64(len(words)))
	for _, w := range words {
		buf = wire.AppendUint64(buf, w)
	}
	return buf
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

// ShardSnapshot is one shard's full durable state at an epoch.
type ShardSnapshot struct {
	// Epoch is the server dataset version the snapshot reflects.
	Epoch uint64
	// Dataset is the shard's dataset table and log position.
	Dataset *dataset.Snapshot
	// LocalToGlobal maps every shard-local graph id (live or deleted)
	// to its global id.
	LocalToGlobal []int
	// State is the shard runtime's warm state (cache + cost model).
	State *core.RuntimeState
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
	st := s.State
	buf = wire.AppendUvarint(buf, uint64(st.AvgTestCostN))
	buf = wire.AppendFloat64(buf, st.AvgTestCostMean)
	buf = wire.AppendFloat64(buf, st.AvgTestCostM2)
	if st.Cache == nil {
		return append(buf, 0), nil
	}
	buf = append(buf, 1)
	return appendCacheSnapshot(buf, st.Cache)
}

func appendCacheSnapshot(buf []byte, c *cache.Snapshot) ([]byte, error) {
	buf = wire.AppendUvarint(buf, uint64(c.NextID))
	buf = wire.AppendUvarint(buf, uint64(c.Clock))
	buf = wire.AppendUvarint(buf, c.AppliedSeq)
	for _, ctr := range []int64{c.Admitted, c.Evicted, c.Purges, c.Validates, c.RepairedBits, c.RepairDropped} {
		if ctr < 0 {
			return nil, fmt.Errorf("persist: negative cache counter %d", ctr)
		}
		buf = wire.AppendUvarint(buf, uint64(ctr))
	}
	buf = wire.AppendBool(buf, c.RelIncomplete)
	buf = wire.AppendUvarint(buf, uint64(len(c.Entries)))
	buf = wire.AppendUvarint(buf, uint64(c.WindowStart))
	for i := range c.Entries {
		e := &c.Entries[i]
		if e.ID < 0 || e.Hits < 0 || e.LastUsed < 0 {
			return nil, fmt.Errorf("persist: negative entry field on entry %d", i)
		}
		buf = wire.AppendUvarint(buf, uint64(e.ID))
		buf = append(buf, byte(e.Kind))
		buf = wire.AppendBytes(buf, graph.Marshal(e.Query))
		buf = wire.AppendUvarint(buf, e.Seq)
		buf = wire.AppendFloat64(buf, e.R)
		buf = wire.AppendFloat64(buf, e.CostEst)
		buf = wire.AppendUvarint(buf, uint64(e.Hits))
		buf = wire.AppendUvarint(buf, uint64(e.LastUsed))
		buf = appendBitset(buf, e.Answer)
		buf = appendBitset(buf, e.Valid)
		buf = wire.AppendBool(buf, e.RelKnown)
		buf = wire.AppendUvarint(buf, uint64(len(e.Sup)))
		for _, j := range e.Sup {
			buf = wire.AppendUvarint(buf, uint64(j))
		}
		buf = wire.AppendUvarint(buf, uint64(len(e.Sub)))
		for _, j := range e.Sub {
			buf = wire.AppendUvarint(buf, uint64(j))
		}
	}
	buf = wire.AppendUvarint(buf, uint64(len(c.RepairQueue)))
	for _, r := range c.RepairQueue {
		buf = wire.AppendUvarint(buf, uint64(r.EntryIdx))
		buf = wire.AppendUvarint(buf, uint64(r.GraphID))
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
	s.State = &core.RuntimeState{
		AvgTestCostN:    int64(d.Uvarint()),
		AvgTestCostMean: d.Float64(),
		AvgTestCostM2:   d.Float64(),
	}
	if d.Bool() {
		s.State.Cache = decodeCacheSnapshot(&d)
	}
	if err := d.Finish("shard snapshot"); err != nil {
		return nil, err
	}
	return s, nil
}

func decodeCacheSnapshot(d *wire.Dec) *cache.Snapshot {
	c := &cache.Snapshot{
		NextID:     int(d.Uvarint()),
		Clock:      int64(d.Uvarint()),
		AppliedSeq: d.Uvarint(),
	}
	for _, ctr := range []*int64{&c.Admitted, &c.Evicted, &c.Purges, &c.Validates, &c.RepairedBits, &c.RepairDropped} {
		*ctr = int64(d.Uvarint())
	}
	c.RelIncomplete = d.Bool()
	n := d.Count(8)
	c.WindowStart = int(d.Uvarint())
	if d.Err() != nil {
		return nil
	}
	c.Entries = make([]cache.EntrySnapshot, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		e := &c.Entries[i]
		e.ID = int(d.Uvarint())
		kind := d.Byte()
		if kind > byte(cache.KindSuper) {
			d.Fail("entry %d: unknown kind %d", i, kind)
			return nil
		}
		e.Kind = cache.Kind(kind)
		e.Query = decodeGraph(d)
		e.Seq = d.Uvarint()
		e.R = d.Float64()
		e.CostEst = d.Float64()
		e.Hits = int64(d.Uvarint())
		e.LastUsed = int64(d.Uvarint())
		e.Answer = decodeBitset(d)
		e.Valid = decodeBitset(d)
		e.RelKnown = d.Bool()
		nsup := d.Count(1)
		for j := 0; j < nsup && d.Err() == nil; j++ {
			e.Sup = append(e.Sup, int(d.Uvarint()))
		}
		nsub := d.Count(1)
		for j := 0; j < nsub && d.Err() == nil; j++ {
			e.Sub = append(e.Sub, int(d.Uvarint()))
		}
	}
	nrep := d.Count(2)
	for i := 0; i < nrep && d.Err() == nil; i++ {
		c.RepairQueue = append(c.RepairQueue, cache.RepairRef{
			EntryIdx: int(d.Uvarint()),
			GraphID:  int(d.Uvarint()),
		})
	}
	return c
}
