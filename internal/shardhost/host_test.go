package shardhost

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"gcplus/internal/cache"
	"gcplus/internal/changeplan"
	"gcplus/internal/core"
	"gcplus/internal/dataset"
	"gcplus/internal/graph"
	"gcplus/internal/persist"
	"gcplus/internal/subiso"
	"gcplus/internal/testutil"
)

// These tests drive a Host directly — no router, no transport — to pin
// the contract the layers above build on: one FIFO job stream per shard,
// one dense epoch-stamped WAL frame per batch, a snapshot + WAL tail that
// rebuilds the same shard, and a Stop that drains what was enqueued and
// leaves no goroutine behind.

// The partition: global ids are deliberately not the local ids, so every
// answer exercises the local→global translation.
var (
	testGIDs = []int{10, 11, 12, 13}
	testQ    = graph.Path(1, 2)
)

func testPartition() []*graph.Graph {
	return []*graph.Graph{
		graph.Path(1, 2, 3), // contains testQ
		graph.Path(1, 2),    // contains testQ
		graph.Path(3, 4),
		graph.Path(1, 2, 4), // contains testQ
	}
}

func testCoreOptions() core.Options {
	return core.Options{
		Algorithm:         subiso.VF2{},
		VerifyParallelism: 1,
		Cache:             &cache.Config{Capacity: 8, WindowSize: 2, RepairQueue: 64},
	}
}

func newTestHost(t *testing.T, cfg Config) *Host {
	t.Helper()
	h, err := New(0, testPartition(), append([]int(nil), testGIDs...), testCoreOptions(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// durableConfig is the configuration the router builds a durable
// fail-update host with, minus the fsync.
func durableConfig(t *testing.T) Config {
	t.Helper()
	store, err := persist.OpenStore(t.TempDir(), 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(store.Close)
	return Config{Store: store, WAL: true, NoSync: true, WALPolicy: "fail-update", FailUpdateOnGap: true}
}

// park blocks the owner goroutine on a job until the returned release
// is called, so a test can line jobs up behind it.
func park(h *Host) (release func()) {
	gate := make(chan struct{})
	h.Enqueue(func() { <-gate })
	return func() { close(gate) }
}

// query runs testQ as a subgraph query and waits for the answer.
func query(t *testing.T, h *Host) []int {
	t.Helper()
	var reply QueryReply
	done := make(chan struct{})
	h.Query(context.Background(), &QueryRequest{Kind: cache.KindSub, Query: testQ}, &reply, func() { close(done) })
	<-done
	if reply.Err != nil {
		t.Fatal(reply.Err)
	}
	return reply.IDs
}

// apply runs one op and waits for its outcome.
func apply(t *testing.T, h *Host, op changeplan.Op, gid int) OpReply {
	t.Helper()
	var reply OpReply
	done := make(chan struct{})
	h.ApplyOp(&OpRequest{Op: op, GlobalID: gid}, &reply, func() { close(done) })
	<-done
	return reply
}

// appendWAL closes a batch at epoch and waits for the ack.
func appendWAL(t *testing.T, h *Host, epoch uint64) {
	t.Helper()
	var reply WALAppendReply
	done := make(chan struct{})
	h.AppendWAL(epoch, &reply, func() { close(done) })
	<-done
	if reply.Err != nil {
		t.Fatalf("AppendWAL(%d): %v", epoch, reply.Err)
	}
}

// readSegment decodes the batches of the shard-0 WAL segment based at
// base, returning them with the offset just past the last intact frame.
func readSegment(t *testing.T, store *persist.Store, base uint64) ([]*persist.WALBatch, int64) {
	t.Helper()
	gotBase, frames, end, torn, err := persist.ReadWALFile(store.WALPath(0, base), 0)
	if err != nil || torn || gotBase != base {
		t.Fatalf("segment %d: base %d, torn %v, err %v", base, gotBase, torn, err)
	}
	batches := make([]*persist.WALBatch, len(frames))
	for i, f := range frames {
		if batches[i], err = persist.DecodeWALBatch(f.Payload); err != nil {
			t.Fatal(err)
		}
	}
	return batches, end
}

func TestHostFIFOOrder(t *testing.T) {
	check := testutil.GoroutineBaseline(t)
	h := newTestHost(t, Config{})
	h.Start(0)

	// Everything below is enqueued while the owner is parked, so the
	// completion order and every answer are decided by queue order alone.
	release := park(h)
	var (
		order   []int // appended to by done callbacks: owner goroutine only
		wg      sync.WaitGroup
		replies [3]QueryReply
		ops     [2]OpReply
		lag     [2]uint64 // dataset seq − cache applied seq, before and after Sync
	)
	step := 0
	next := func() func() {
		i := step
		step++
		wg.Add(1)
		return func() { order = append(order, i); wg.Done() }
	}
	ask := func(r *QueryReply) {
		h.Query(context.Background(), &QueryRequest{Kind: cache.KindSub, Query: testQ}, r, next())
	}
	inspect := func(out *uint64) {
		done := next()
		h.Enqueue(func() {
			*out = h.Dataset().Seq() - h.Runtime().CacheStats().AppliedSeq
			done()
		})
	}
	ask(&replies[0])
	h.ApplyOp(&OpRequest{Op: changeplan.AddOp(graph.Path(2, 1, 5)), GlobalID: 14}, &ops[0], next())
	ask(&replies[1])
	h.ApplyOp(&OpRequest{Op: changeplan.DeleteOp(1), GlobalID: 11}, &ops[1], next())
	inspect(&lag[0])
	h.Sync(next())
	inspect(&lag[1])
	ask(&replies[2])
	release()
	wg.Wait()

	want := make([]int, step)
	for i := range want {
		want[i] = i
	}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("jobs completed in order %v, want %v", order, want)
	}
	for i, r := range ops {
		if r.Err != nil {
			t.Fatalf("op %d: %v", i, r.Err)
		}
	}
	if ops[0].ID != 14 || ops[1].ID != 11 {
		t.Fatalf("op ids %d, %d; want the global ids 14, 11", ops[0].ID, ops[1].ID)
	}
	// Each query sees exactly the ops enqueued before it.
	for i, wantIDs := range [][]int{{10, 11, 13}, {10, 11, 13, 14}, {10, 13, 14}} {
		if replies[i].Err != nil {
			t.Fatal(replies[i].Err)
		}
		if !reflect.DeepEqual(replies[i].IDs, wantIDs) {
			t.Fatalf("query %d answered %v, want %v", i, replies[i].IDs, wantIDs)
		}
	}
	// The second query reconciled the ADD; the DEL after it is the one
	// record Sync, and nothing else, had to process.
	if lag != [2]uint64{1, 0} {
		t.Fatalf("cache lag before/after Sync = %v, want [1 0]", lag)
	}
	h.Stop()
	check()
}

func TestHostAppendWALDenseEpochs(t *testing.T) {
	check := testutil.GoroutineBaseline(t)
	cfg := durableConfig(t)
	h := newTestHost(t, cfg)
	if err := h.ResetWAL(0, -1); err != nil {
		t.Fatal(err)
	}
	h.Start(0)

	// Epoch 1 touches the shard, epoch 2 does not, epoch 3 carries one
	// applied op and one refused op.
	if r := apply(t, h, changeplan.AddEdgeOp(2, 0, 1), 12); r.Err == nil {
		t.Fatal("adding an existing edge succeeded")
	}
	if r := apply(t, h, changeplan.RemoveEdgeOp(2, 0, 1), 12); r.Err != nil {
		t.Fatal(r.Err)
	}
	appendWAL(t, h, 1)
	appendWAL(t, h, 2)
	if r := apply(t, h, changeplan.AddOp(graph.Path(7, 8)), 14); r.Err != nil || r.ID != 14 {
		t.Fatalf("ADD: %+v", r)
	}
	if r := apply(t, h, changeplan.DeleteOp(9), 99); r.Err == nil || r.ID != -1 {
		t.Fatalf("DEL of an unknown graph: %+v", r)
	}
	appendWAL(t, h, 3)
	if got := h.DurableEpoch(); got != 3 {
		t.Fatalf("durable epoch %d, want 3", got)
	}
	h.Stop()
	if err := h.CloseWAL(true); err != nil {
		t.Fatal(err)
	}
	check()

	batches, _ := readSegment(t, cfg.Store, 0)
	if len(batches) != 3 {
		t.Fatalf("%d frames, want one per epoch", len(batches))
	}
	for i, wantOps := range []int{1, 0, 1} {
		if b := batches[i]; b.Epoch != uint64(i+1) || len(b.Ops) != wantOps {
			t.Fatalf("frame %d: epoch %d with %d ops, want epoch %d with %d", i, b.Epoch, len(b.Ops), i+1, wantOps)
		}
	}
	if op := batches[0].Ops[0]; op.Op.Type != dataset.OpUpdateRemoveEdge || op.Op.GraphID != 2 || op.GlobalID != 12 {
		t.Fatalf("epoch 1 logged %+v, want UR on local 2 / global 12", op)
	}
	if op := batches[2].Ops[0]; op.Op.Type != dataset.OpAdd || op.GlobalID != 14 {
		t.Fatalf("epoch 3 logged %+v, want the ADD of global 14", op)
	}
}

func TestHostSnapshotResetWALRoundTrip(t *testing.T) {
	check := testutil.GoroutineBaseline(t)
	cfg := durableConfig(t)
	a := newTestHost(t, cfg)
	if err := a.ResetWAL(0, -1); err != nil {
		t.Fatal(err)
	}
	a.Start(1)

	query(t, a) // a warm cache entry the snapshot leaves behind
	apply(t, a, changeplan.AddOp(graph.Path(2, 1, 5)), 14)
	appendWAL(t, a, 1)
	var snapReply SnapshotReply
	done := make(chan struct{})
	a.Snapshot(1, &snapReply, func() { close(done) })
	<-done
	if snapReply.RotateErr != nil || snapReply.Snap == nil {
		t.Fatalf("snapshot: %+v", snapReply)
	}
	// One batch past the generation: the tail the restart must replay.
	apply(t, a, changeplan.DeleteOp(1), 11)
	appendWAL(t, a, 2)
	wantIDs := query(t, a)
	if !reflect.DeepEqual(wantIDs, []int{10, 13, 14}) {
		t.Fatalf("pre-restart answer %v", wantIDs)
	}
	a.Stop()
	if err := a.CloseWAL(true); err != nil {
		t.Fatal(err)
	}

	// Restart the way the router's recovery does: decode the generation,
	// rebuild the host over it, replay the rotated segment, reopen it.
	payload, err := persist.EncodeShardSnapshot(snapReply.Snap)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := persist.DecodeShardSnapshot(payload)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Epoch != 1 || !reflect.DeepEqual(snap.LocalToGlobal, []int{10, 11, 12, 13, 14}) {
		t.Fatalf("snapshot epoch %d, id map %v", snap.Epoch, snap.LocalToGlobal)
	}
	b, err := NewOver(0, dataset.Restore(snap.Dataset), snap.LocalToGlobal, testCoreOptions(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n := b.Runtime().CacheSize() + b.Runtime().CacheStats().Window; n != 0 {
		t.Fatalf("restarted host starts with %d cache entries, want an empty cache", n)
	}
	tail, end := readSegment(t, cfg.Store, 1)
	if len(tail) != 1 || tail[0].Epoch != 2 {
		t.Fatalf("segment rotated at epoch 1 holds %d frames", len(tail))
	}
	if err := b.ReplayBatch(tail[0]); err != nil {
		t.Fatal(err)
	}
	if err := b.ResetWAL(1, end); err != nil {
		t.Fatal(err)
	}
	b.Start(1)
	if got := query(t, b); !reflect.DeepEqual(got, wantIDs) {
		t.Fatalf("restarted host answers %v, want %v", got, wantIDs)
	}
	// The reopened segment keeps growing where the replay ended.
	apply(t, b, changeplan.DeleteOp(0), 10)
	appendWAL(t, b, 3)
	if got := query(t, b); !reflect.DeepEqual(got, []int{13, 14}) {
		t.Fatalf("answer after epoch 3: %v", got)
	}
	b.Stop()
	if err := b.CloseWAL(true); err != nil {
		t.Fatal(err)
	}
	check()
	chain, _ := readSegment(t, cfg.Store, 1)
	if len(chain) != 2 || chain[0].Epoch != 2 || chain[1].Epoch != 3 {
		t.Fatalf("segment after restart holds %d frames, want epochs 2 and 3", len(chain))
	}
}

func TestHostStopWithJobInFlight(t *testing.T) {
	check := testutil.GoroutineBaseline(t)
	h := newTestHost(t, Config{})
	h.Start(1) // with the repair worker, which Stop must also retire

	release := park(h)
	var reply QueryReply
	answered := make(chan struct{})
	h.Query(context.Background(), &QueryRequest{Kind: cache.KindSub, Query: testQ}, &reply, func() { close(answered) })
	stopped := make(chan struct{})
	go func() {
		h.Stop()
		close(stopped)
	}()
	select {
	case <-stopped:
		t.Fatal("Stop returned while a job was still running")
	case <-answered:
		t.Fatal("queued query ran past the parked job")
	default:
	}
	release()
	<-stopped
	// Stop drains the queue: the query enqueued before it still answers.
	select {
	case <-answered:
	default:
		t.Fatal("Stop returned without running the queued query")
	}
	if reply.Err != nil || !reflect.DeepEqual(reply.IDs, []int{10, 11, 13}) {
		t.Fatalf("drained query answered %v, %v", reply.IDs, reply.Err)
	}
	check()
}
