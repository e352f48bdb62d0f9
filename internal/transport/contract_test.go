package transport

// The ShardService contract test: one table of behavioral requirements
// run identically against the local (in-process) and loopback (TCP)
// transports. Whatever ShardClient the router is handed, these are the
// properties its consistency and resilience layers assume — answer
// equivalence, per-stage deadline propagation, mid-stream cancellation,
// the streaming limit-prefix contract, error taxonomy round-trips, and
// stats/epoch consistency. A future remote transport earns its place by
// passing this same table.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"gcplus/internal/cache"
	"gcplus/internal/changeplan"
	"gcplus/internal/core"
	"gcplus/internal/dataset"
	"gcplus/internal/graph"
	"gcplus/internal/obs"
	"gcplus/internal/persist"
	"gcplus/internal/shardhost"
	"gcplus/internal/subiso"
	"gcplus/internal/synthetic"
	"gcplus/internal/wire"
)

func genGraphs(t testing.TB, n int, seed int64) []*graph.Graph {
	t.Helper()
	cfg := synthetic.Default().WithGraphs(n)
	cfg.MeanVertices = 12
	cfg.StdVertices = 4
	cfg.MaxVertices = 24
	cfg.Seed = seed
	gs, err := synthetic.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return gs
}

// newTestHosts partitions a synthetic dataset round-robin over shards
// and starts one host per shard. cfg.Store == nil means no WAL.
func newTestHosts(t testing.TB, shards int, cfg shardhost.Config) []*shardhost.Host {
	t.Helper()
	gs := genGraphs(t, 60, 7)
	algo, err := subiso.New("VF2")
	if err != nil {
		t.Fatal(err)
	}
	opts := core.Options{Algorithm: algo, Cache: &cache.Config{Capacity: 64}}
	hosts := make([]*shardhost.Host, shards)
	for s := 0; s < shards; s++ {
		var part []*graph.Graph
		var gids []int
		for i := s; i < len(gs); i += shards {
			part = append(part, gs[i])
			gids = append(gids, i)
		}
		h, err := shardhost.New(s, part, gids, opts, cfg)
		if err != nil {
			t.Fatal(err)
		}
		h.Start(1)
		t.Cleanup(h.Stop)
		hosts[s] = h
	}
	return hosts
}

// dialAll connects clients of the named kind to hosts, registering
// cleanup for the sockets and server.
func dialAll(t testing.TB, kind string, hosts []*shardhost.Host) []ShardClient {
	t.Helper()
	clients := make([]ShardClient, len(hosts))
	switch kind {
	case "local":
		for i, h := range hosts {
			clients[i] = NewLocal(h)
		}
	case "loopback":
		srv, err := ServeLoopback(hosts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		for i := range hosts {
			c, err := DialLoopback(srv.Addr(), i)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { c.Close() })
			clients[i] = c
		}
	default:
		t.Fatalf("unknown transport kind %q", kind)
	}
	return clients
}

// queryShard runs one query against a single shard and waits for the
// reply.
func queryShard(ctx context.Context, c ShardClient, kind cache.Kind, q *graph.Graph, opts core.QueryOptions) *shardhost.QueryReply {
	reply := &shardhost.QueryReply{}
	done := make(chan struct{})
	c.Query(ctx, &shardhost.QueryRequest{Kind: kind, Query: q, Opts: opts}, reply, func() { close(done) })
	<-done
	return reply
}

func applyShard(c ShardClient, op changeplan.Op, gid int) *shardhost.OpReply {
	reply := &shardhost.OpReply{}
	done := make(chan struct{})
	c.ApplyOp(&shardhost.OpRequest{Op: op, GlobalID: gid}, reply, func() { close(done) })
	<-done
	return reply
}

func statsShard(c ShardClient, t *testing.T) *shardhost.StatsReply {
	t.Helper()
	reply := &shardhost.StatsReply{}
	done := make(chan struct{})
	c.Stats(reply, func() { close(done) })
	<-done
	if reply.Err != nil {
		t.Fatalf("stats: %v", reply.Err)
	}
	return reply
}

func testQueries(gs []*graph.Graph) []*graph.Graph {
	var qs []*graph.Graph
	for i := 0; i < 6 && i < len(gs); i++ {
		g := gs[i]
		if g.NumVertices() < 3 {
			continue
		}
		l0, l1, l2 := g.Label(0), g.Label(1), g.Label(2)
		switch i % 3 {
		case 0:
			qs = append(qs, graph.Path(l0, l1))
		case 1:
			qs = append(qs, graph.Path(l0, l1, l2))
		default:
			qs = append(qs, graph.Star(l1, l0, l2))
		}
	}
	return qs
}

// eachTransport runs f once per transport kind, against shared hosts.
func eachTransport(t *testing.T, hosts []*shardhost.Host, f func(t *testing.T, kind string, clients []ShardClient)) {
	for _, kind := range []string{"local", "loopback"} {
		t.Run(kind, func(t *testing.T) {
			f(t, kind, dialAll(t, kind, hosts))
		})
	}
}

// TestContractQueryEquivalence: both transports return bit-identical
// answers and work counters for the same queries against the same
// hosts — the differential heart of the contract.
func TestContractQueryEquivalence(t *testing.T) {
	hosts := newTestHosts(t, 3, shardhost.Config{})
	local := dialAll(t, "local", hosts)
	loop := dialAll(t, "loopback", hosts)
	qs := testQueries(genGraphs(t, 60, 7))
	if len(qs) == 0 {
		t.Fatal("no test queries")
	}
	for qi, q := range qs {
		for _, kind := range []cache.Kind{cache.KindSub, cache.KindSuper} {
			for s := range hosts {
				a := queryShard(context.Background(), local[s], kind, q, core.QueryOptions{BypassCache: true})
				b := queryShard(context.Background(), loop[s], kind, q, core.QueryOptions{BypassCache: true})
				if a.Err != nil || b.Err != nil {
					t.Fatalf("q%d kind %v shard %d: errs %v / %v", qi, kind, s, a.Err, b.Err)
				}
				if !equalInts(a.IDs, b.IDs) {
					t.Fatalf("q%d kind %v shard %d: answers differ: local %v loopback %v", qi, kind, s, a.IDs, b.IDs)
				}
				if a.Stats.SubIsoTests != b.Stats.SubIsoTests || a.Stats.CandidatesBefore != b.Stats.CandidatesBefore {
					t.Fatalf("q%d kind %v shard %d: work counters differ: %+v vs %+v", qi, kind, s, a.Stats, b.Stats)
				}
				if b.HostNanos <= 0 {
					t.Fatalf("q%d shard %d: loopback reply missing HostNanos", qi, s)
				}
			}
		}
	}
}

// TestContractDeadlineQueueStage: a request whose deadline expired
// before dispatch fails with a queue-stage CancelError on every
// transport (the budget crosses the wire as 1ns, not zero/none).
func TestContractDeadlineQueueStage(t *testing.T) {
	hosts := newTestHosts(t, 1, shardhost.Config{})
	qs := testQueries(genGraphs(t, 60, 7))
	eachTransport(t, hosts, func(t *testing.T, kind string, clients []ShardClient) {
		ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
		defer cancel()
		reply := queryShard(ctx, clients[0], cache.KindSub, qs[0], core.QueryOptions{})
		var ce *core.CancelError
		if !errors.As(reply.Err, &ce) {
			t.Fatalf("want CancelError, got %v", reply.Err)
		}
		if ce.Stage != "queue" {
			t.Fatalf("want queue-stage cancellation, got stage %q", ce.Stage)
		}
		if got := StatusOf(reply.Err); got != StatusCanceled {
			t.Fatalf("StatusOf = %v, want StatusCanceled", got)
		}
	})
}

// TestContractMidStreamCancel: cancelling the context after dispatch
// aborts a request stuck behind a blocked owner queue. Over loopback
// this exercises the CANCEL frame: the server reader handles it inline
// while the owner goroutine is still busy.
func TestContractMidStreamCancel(t *testing.T) {
	hosts := newTestHosts(t, 1, shardhost.Config{})
	qs := testQueries(genGraphs(t, 60, 7))
	eachTransport(t, hosts, func(t *testing.T, kind string, clients []ShardClient) {
		gate := make(chan struct{})
		hosts[0].Enqueue(func() { <-gate })
		ctx, cancel := context.WithCancel(context.Background())
		reply := &shardhost.QueryReply{}
		done := make(chan struct{})
		clients[0].Query(ctx, &shardhost.QueryRequest{Kind: cache.KindSub, Query: qs[0], Opts: core.QueryOptions{}}, reply, func() { close(done) })
		cancel()
		if kind == "loopback" {
			// Give the CANCEL frame time to land before the queue drains;
			// correctness does not depend on it (the context would also
			// expire the query host-side), but the race being exercised
			// should usually be the frame path.
			time.Sleep(20 * time.Millisecond)
		}
		close(gate)
		<-done
		var ce *core.CancelError
		if !errors.As(reply.Err, &ce) {
			t.Fatalf("want CancelError after mid-stream cancel, got %v", reply.Err)
		}
		if got := StatusOf(reply.Err); got != StatusCanceled {
			t.Fatalf("StatusOf = %v, want StatusCanceled", got)
		}
	})
}

// TestContractLimitPrefix: Opts.Limit returns exactly the N smallest
// ids of the full answer, with Truncated set iff something was cut —
// on every transport (the wire ships Limit and the Truncated flag).
func TestContractLimitPrefix(t *testing.T) {
	hosts := newTestHosts(t, 2, shardhost.Config{})
	qs := testQueries(genGraphs(t, 60, 7))
	eachTransport(t, hosts, func(t *testing.T, kind string, clients []ShardClient) {
		for s, c := range clients {
			full := queryShard(context.Background(), c, cache.KindSub, qs[0], core.QueryOptions{})
			if full.Err != nil {
				t.Fatal(full.Err)
			}
			for _, limit := range []int{1, 2, len(full.IDs), len(full.IDs) + 5} {
				if limit == 0 {
					continue
				}
				got := queryShard(context.Background(), c, cache.KindSub, qs[0], core.QueryOptions{Limit: limit})
				if got.Err != nil {
					t.Fatal(got.Err)
				}
				want := full.IDs
				if limit < len(want) {
					want = want[:limit]
				}
				if !equalInts(got.IDs, want) {
					t.Fatalf("shard %d limit %d: got %v want %v", s, limit, got.IDs, want)
				}
				if wantTrunc := limit < len(full.IDs); got.Stats.Truncated != wantTrunc {
					t.Fatalf("shard %d limit %d: Truncated = %v, want %v", s, limit, got.Stats.Truncated, wantTrunc)
				}
			}
		}
	})
}

// TestContractOversizeFrame: an outbound frame larger than the limit is
// rejected client-side as StatusBadRequest without poisoning the
// connection. Frame limits are a wire concept; the local transport has
// no frames and passes any request through.
func TestContractOversizeFrame(t *testing.T) {
	hosts := newTestHosts(t, 1, shardhost.Config{})
	qs := testQueries(genGraphs(t, 60, 7))
	eachTransport(t, hosts, func(t *testing.T, kind string, clients []ShardClient) {
		if kind != "loopback" {
			if clients[0].Kind() != "local" {
				t.Fatalf("Kind() = %q, want local", clients[0].Kind())
			}
			reply := queryShard(context.Background(), clients[0], cache.KindSub, qs[0], core.QueryOptions{})
			if reply.Err != nil {
				t.Fatalf("local transport must not enforce frame limits: %v", reply.Err)
			}
			return
		}
		lc := clients[0].(*LoopbackClient)
		lc.maxFrame = 16 // every query frame exceeds this
		reply := queryShard(context.Background(), lc, cache.KindSub, qs[0], core.QueryOptions{})
		if got := StatusOf(reply.Err); got != StatusBadRequest {
			t.Fatalf("StatusOf = %v (err %v), want StatusBadRequest", got, reply.Err)
		}
		lc.maxFrame = MaxFramePayload
		reply = queryShard(context.Background(), lc, cache.KindSub, qs[0], core.QueryOptions{})
		if reply.Err != nil {
			t.Fatalf("connection poisoned by rejected frame: %v", reply.Err)
		}
	})
}

// TestContractOpsWALAndStats: the full update path — snapshot-driven WAL
// rotation, ADD/UA/DEL ops, per-epoch WAL appends — advances the
// durable epoch identically over both transports, shard errors keep
// their taxonomy and message across the wire, and the stats snapshot is
// consistent with the op stream.
func TestContractOpsWALAndStats(t *testing.T) {
	gs := genGraphs(t, 60, 7)
	eachTransport := []string{"local", "loopback"}
	type outcome struct {
		durable    uint64
		liveGraphs int
		logSeq     uint64
		addID      int
		errStr     string
	}
	results := make(map[string]outcome)
	for _, kind := range eachTransport {
		t.Run(kind, func(t *testing.T) {
			store, err := persist.OpenStore(t.TempDir(), 1)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(store.Close)
			cfg := shardhost.Config{Store: store, WAL: true, NoSync: true, FailUpdateOnGap: true}
			hosts := newTestHosts(t, 1, cfg)
			c := dialAll(t, kind, hosts)[0]

			// Rotation via Snapshot installs the first WAL segment.
			snap := &shardhost.SnapshotReply{}
			done := make(chan struct{})
			c.Snapshot(0, snap, func() { close(done) })
			<-done
			if snap.RotateErr != nil {
				t.Fatal(snap.RotateErr)
			}
			switch kind {
			case "local":
				if snap.Snap == nil {
					t.Fatal("local snapshot reply must carry the raw export")
				}
			case "loopback":
				if snap.Payload == nil {
					t.Fatal("loopback snapshot reply must carry the encoded payload")
				}
				ss, err := persist.DecodeShardSnapshot(snap.Payload)
				if err != nil {
					t.Fatal(err)
				}
				if ss.Epoch != 0 || len(ss.LocalToGlobal) == 0 {
					t.Fatalf("decoded snapshot inconsistent: epoch %d, %d ids", ss.Epoch, len(ss.LocalToGlobal))
				}
			}

			before := statsShard(c, t)
			gid := 60 // next global id after the seed partition
			add := applyShard(c, changeplan.AddOp(gs[0]), gid)
			if add.Err != nil || add.ID != gid {
				t.Fatalf("ADD: id %d err %v", add.ID, add.Err)
			}
			ua := applyShard(c, changeplan.Op{Type: dataset.OpUpdateAddEdge, GraphID: 0, U: 0, V: 2}, 0)
			if ua.Err != nil {
				t.Fatalf("UA: %v", ua.Err)
			}
			wal := &shardhost.WALAppendReply{}
			done = make(chan struct{})
			c.AppendWAL(1, wal, func() { close(done) })
			<-done
			if wal.Err != nil {
				t.Fatal(wal.Err)
			}
			// Sync with nil done: fire-and-forget, ordered by the queue —
			// the following Stats proves it completed.
			c.Sync(nil)

			after := statsShard(c, t)
			if after.DurableEpoch != 1 {
				t.Fatalf("durable epoch = %d, want 1", after.DurableEpoch)
			}
			if after.LiveGraphs != before.LiveGraphs+1 {
				t.Fatalf("live graphs %d -> %d, want +1", before.LiveGraphs, after.LiveGraphs)
			}
			if after.LogSeq != before.LogSeq+2 {
				t.Fatalf("log seq %d -> %d, want +2", before.LogSeq, after.LogSeq)
			}
			if after.WALAppends != 1 || after.WALAppendErrors != 0 {
				t.Fatalf("wal appends %d errors %d, want 1/0", after.WALAppends, after.WALAppendErrors)
			}

			// A shard error keeps its "serve:" message and BadRequest-class
			// taxonomy across the transport.
			bad := applyShard(c, changeplan.Op{Type: dataset.OpUpdateAddEdge, GraphID: 0, U: 0, V: 2}, 0)
			if bad.Err == nil || bad.ID != -1 {
				t.Fatalf("duplicate edge must fail: id %d err %v", bad.ID, bad.Err)
			}
			if !strings.HasPrefix(bad.Err.Error(), "serve: ") {
				t.Fatalf("shard error lost its prefix: %q", bad.Err.Error())
			}
			results[kind] = outcome{
				durable:    after.DurableEpoch,
				liveGraphs: after.LiveGraphs,
				logSeq:     after.LogSeq,
				addID:      add.ID,
				errStr:     bad.Err.Error(),
			}
		})
	}
	if a, b := results["local"], results["loopback"]; a != b {
		t.Fatalf("transports diverged:\n local    %+v\n loopback %+v", a, b)
	}
}

// TestContractSignalsPiggyback: the loopback client's Signals are
// refreshed by reply frames without extra round trips and match the
// host's own sample once the queue is idle.
func TestContractSignalsPiggyback(t *testing.T) {
	hosts := newTestHosts(t, 1, shardhost.Config{})
	qs := testQueries(genGraphs(t, 60, 7))
	clients := dialAll(t, "loopback", hosts)
	if got := queryShard(context.Background(), clients[0], cache.KindSub, qs[0], core.QueryOptions{}); got.Err != nil {
		t.Fatal(got.Err)
	}
	sig := clients[0].Signals()
	if sig.QueueLen < 0 || sig.PendingRepairs < 0 {
		t.Fatalf("negative signals: %+v", sig)
	}
	want := hosts[0].Signals()
	if sig.PendingRepairs != want.PendingRepairs {
		t.Fatalf("piggybacked repairs %d, host says %d", sig.PendingRepairs, want.PendingRepairs)
	}
}

// TestContractHelloVersion: the loopback server speaks only
// protocolVersion. A HELLO that ends at the shard index (the old v1
// shape) or announces version 2 (whose QUERY replies carried a span
// block) gets its connection closed before any request is served; the
// same HELLO announcing protocolVersion is answered.
func TestContractHelloVersion(t *testing.T) {
	srv, err := ServeLoopback(newTestHosts(t, 1, shardhost.Config{}))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	syncFrame := wire.AppendFrame(nil, []byte{msgSync, 1})
	for _, ver := range []uint64{0, 2, protocolVersion} { // 0: no version field
		conn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		hello := []byte{msgHello, 0}
		if ver != 0 {
			hello = wire.AppendUvarint(hello, ver)
		}
		conn.SetDeadline(time.Now().Add(10 * time.Second))
		if _, err := conn.Write(append(wire.AppendFrame(nil, hello), syncFrame...)); err != nil {
			t.Fatal(err)
		}
		reply, err := wire.ReadFrame(conn, 0)
		conn.Close()
		if ver == protocolVersion && (err != nil || reply[0] != msgReply) {
			t.Fatalf("HELLO version %d: reply %x, err %v", ver, reply, err)
		}
		// Closed means EOF, or a reset when the server closed with the
		// SYNC frame still unread; a timeout means it kept the connection.
		var ne net.Error
		if ver != protocolVersion && (err == nil || errors.As(err, &ne) && ne.Timeout()) {
			t.Fatalf("HELLO version %d: got reply %x, err %v; want the connection closed", ver, reply, err)
		}
	}
}

// TestContractOrdering: per-shard call order is fixed at call time —
// a burst of interleaved ops and queries issued from one goroutine
// lands in exactly issue order, so a query sees every earlier op and
// no later one. This is the property the router's epoch sequencing
// rests on, over any transport.
func TestContractOrdering(t *testing.T) {
	gs := genGraphs(t, 60, 7)
	eachTransport(t, newTestHosts(t, 1, shardhost.Config{}), func(t *testing.T, kind string, clients []ShardClient) {
		c := clients[0]
		const rounds = 8
		var mu sync.Mutex
		counts := make([]int, 0, rounds)
		var wg sync.WaitGroup
		q := graph.Path(gs[0].Label(0), gs[0].Label(1))
		base := 60
		if kind == "loopback" {
			base = 200 // fresh id space; hosts are shared across subtests
		}
		for i := 0; i < rounds; i++ {
			wg.Add(1)
			reply := &shardhost.OpReply{}
			c.ApplyOp(&shardhost.OpRequest{Op: changeplan.AddOp(gs[i%4]), GlobalID: base + i}, reply, func() { wg.Done() })
			wg.Add(1)
			st := &shardhost.StatsReply{}
			c.Stats(st, func() {
				mu.Lock()
				counts = append(counts, st.LiveGraphs)
				mu.Unlock()
				wg.Done()
			})
		}
		_ = q
		wg.Wait()
		if len(counts) != rounds {
			t.Fatalf("got %d stats replies, want %d", len(counts), rounds)
		}
		for i := 1; i < rounds; i++ {
			if counts[i] != counts[i-1]+1 {
				t.Fatalf("stats out of order: live-graph counts %v", counts)
			}
		}
	})
}

// TestContractTracing: the tracing dimension of the contract. The
// router builds every span, so all that crosses the seam is a sampled
// query's trace id, which the host cites as the exemplar on its
// queue-wait histogram, and the measured queue wait, which comes back on
// the reply for the router's queue span.
func TestContractTracing(t *testing.T) {
	hosts := newTestHosts(t, 1, shardhost.Config{})
	q := testQueries(genGraphs(t, 60, 7))[0]
	reg := obs.NewRegistry()
	reg.RegisterHistogram("queue_wait_seconds", "shard queue wait", nil, hosts[0].QueueWaitHist())
	id := uint64(0x5eed)
	eachTransport(t, hosts, func(t *testing.T, kind string, clients []ShardClient) {
		id++
		// Hold the owner goroutine until the query has waited in the
		// queue behind it for at least a millisecond.
		running, gate := make(chan struct{}), make(chan struct{})
		hosts[0].Enqueue(func() { close(running); <-gate })
		<-running
		reply := &shardhost.QueryReply{}
		done := make(chan struct{})
		clients[0].Query(context.Background(), &shardhost.QueryRequest{
			Kind: cache.KindSub, Query: q, Opts: core.QueryOptions{TraceID: id},
		}, reply, func() { close(done) })
		for hosts[0].QueueLen() == 0 {
			time.Sleep(100 * time.Microsecond)
		}
		time.Sleep(time.Millisecond)
		close(gate)
		<-done
		if reply.Err != nil {
			t.Fatal(reply.Err)
		}
		if reply.QueueNanos < int64(time.Millisecond) || reply.QueueNanos > reply.HostNanos {
			t.Fatalf("queue nanos %d for a query held ≥1ms behind the owner (host nanos %d)", reply.QueueNanos, reply.HostNanos)
		}
		var exp strings.Builder
		if err := reg.WriteProm(&exp); err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf(`trace_id="%016x"`, id); !strings.Contains(exp.String(), want) {
			t.Fatalf("queue-wait histogram does not cite %s:\n%s", want, exp.String())
		}
	})
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
