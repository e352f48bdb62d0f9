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
	"gcplus/internal/persist"
	"gcplus/internal/shardhost"
	"gcplus/internal/subiso"
	"gcplus/internal/synthetic"
	"gcplus/internal/trace"
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
// shape) gets its connection closed before any request is served; the
// same HELLO with the version appended is answered.
func TestContractHelloVersion(t *testing.T) {
	srv, err := ServeLoopback(newTestHosts(t, 1, shardhost.Config{}))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	syncFrame := wire.AppendFrame(nil, []byte{msgSync, 1})
	for _, ver := range []bool{false, true} {
		conn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		hello := []byte{msgHello, 0}
		if ver {
			hello = wire.AppendUvarint(hello, protocolVersion)
		}
		conn.SetDeadline(time.Now().Add(10 * time.Second))
		if _, err := conn.Write(append(wire.AppendFrame(nil, hello), syncFrame...)); err != nil {
			t.Fatal(err)
		}
		reply, err := wire.ReadFrame(conn, 0)
		conn.Close()
		if ver && (err != nil || reply[0] != msgReply) {
			t.Fatalf("versioned HELLO: reply %x, err %v", reply, err)
		}
		// Closed means EOF, or a reset when the server closed with the
		// SYNC frame still unread; a timeout means it kept the connection.
		var ne net.Error
		if !ver && (err == nil || errors.As(err, &ne) && ne.Timeout()) {
			t.Fatalf("HELLO without a version: got reply %x, err %v; want the connection closed", reply, err)
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

// queryShardTraced is queryShard with a propagated trace context.
func queryShardTraced(ctx context.Context, c ShardClient, q *graph.Graph, tc trace.Context) *shardhost.QueryReply {
	reply := &shardhost.QueryReply{}
	done := make(chan struct{})
	c.Query(ctx, &shardhost.QueryRequest{Kind: cache.KindSub, Query: q, Trace: tc}, reply, func() { close(done) })
	<-done
	return reply
}

// spanShape canonicalizes a span list to its structural shape: names in
// emission order with a parent marker — the thing that must be
// transport-independent even though every duration differs.
func spanShape(spans []trace.Span) string {
	if len(spans) == 0 {
		return ""
	}
	root := spans[0].ID
	var b strings.Builder
	for i, s := range spans {
		if i > 0 {
			b.WriteByte('|')
		}
		b.WriteString(s.Name)
		if s.Parent == root {
			b.WriteByte('*') // child of the shard root
		}
	}
	return b.String()
}

// TestContractTracing: the tracing dimension of the contract. Where the
// span subtree materializes is transport-specific — wire transports
// piggyback it on the reply frame (built server-side, off the owner
// goroutine), while the in-process transport leaves Spans nil and the
// router synthesizes the subtree from the reply stats — but the
// resulting tree must be identically shaped either way, an unsampled
// request carries none, the queue wait is reported regardless, and a
// mid-stream cancellation keeps its partial trace on the error reply.
func TestContractTracing(t *testing.T) {
	hosts := newTestHosts(t, 1, shardhost.Config{})
	qs := testQueries(genGraphs(t, 60, 7))

	// replySpans resolves one reply to its span subtree the way the
	// router would: wire replies carry their spans, in-process replies
	// carry none and the subtree is synthesized from the reply stats.
	replySpans := func(t *testing.T, kind string, reply *shardhost.QueryReply, tc trace.Context) []trace.Span {
		t.Helper()
		if kind == "local" {
			if len(reply.Spans) != 0 {
				t.Fatalf("in-process transport materialized %d spans on the reply", len(reply.Spans))
			}
			return shardhost.BuildShardSpans(tc, 0, time.Now().UnixNano(),
				time.Duration(reply.QueueNanos), &reply.Stats, reply.Err, hosts[0].CacheEnabled())
		}
		if len(reply.Spans) == 0 {
			t.Fatal("sampled query returned no spans over the wire")
		}
		return reply.Spans
	}

	shapes := make(map[string]string)
	for _, kind := range []string{"local", "loopback"} {
		t.Run(kind, func(t *testing.T) {
			clients := dialAll(t, kind, hosts)
			tc := trace.Context{TraceID: trace.NewTraceID(), Parent: trace.NewSpanID(), Sampled: true}
			reply := queryShardTraced(context.Background(), clients[0], qs[0], tc)
			if reply.Err != nil {
				t.Fatal(reply.Err)
			}
			spans := replySpans(t, kind, reply, tc)
			root := spans[0]
			if root.Name != "shard" || root.TraceID != tc.TraceID || root.Parent != tc.Parent {
				t.Fatalf("root span not parented under the request context: %+v", root)
			}
			for _, s := range spans[1:] {
				if s.Parent != root.ID || s.TraceID != tc.TraceID {
					t.Fatalf("stage span detached from root: %+v", s)
				}
			}
			shape := spanShape(spans)
			for _, stage := range []string{"queue", "plan", "consistency", "hit", "verify"} {
				if !strings.Contains(shape, stage) {
					t.Fatalf("span set %q missing stage %q", shape, stage)
				}
			}
			if reply.QueueNanos < 0 {
				t.Fatalf("negative queue nanos %d", reply.QueueNanos)
			}
			shapes[kind] = shape

			// Unsampled: the trace context rides along but no spans come
			// back on any transport; the queue wait is still reported.
			un := queryShardTraced(context.Background(), clients[0], qs[0],
				trace.Context{TraceID: trace.NewTraceID(), Parent: trace.NewSpanID()})
			if un.Err != nil {
				t.Fatal(un.Err)
			}
			if len(un.Spans) != 0 {
				t.Fatalf("unsampled query returned %d spans", len(un.Spans))
			}

			// Mid-stream cancel: the error reply keeps its partial trace.
			gate := make(chan struct{})
			hosts[0].Enqueue(func() { <-gate })
			ctx, cancel := context.WithCancel(context.Background())
			ctc := trace.Context{TraceID: trace.NewTraceID(), Parent: trace.NewSpanID(), Sampled: true}
			creply := &shardhost.QueryReply{}
			done := make(chan struct{})
			clients[0].Query(ctx, &shardhost.QueryRequest{
				Kind: cache.KindSub, Query: qs[0], Trace: ctc,
			}, creply, func() { close(done) })
			cancel()
			if kind == "loopback" {
				time.Sleep(20 * time.Millisecond) // let the CANCEL frame land
			}
			close(gate)
			<-done
			var ce *core.CancelError
			if !errors.As(creply.Err, &ce) {
				t.Fatalf("want CancelError, got %v", creply.Err)
			}
			cspans := replySpans(t, kind, creply, ctc)
			if len(cspans) == 0 {
				t.Fatal("cancelled query dropped its partial trace")
			}
			if cspans[0].Attr("error") == "" {
				t.Fatalf("partial root span missing error attribute: %+v", cspans[0])
			}
		})
	}
	if shapes["local"] != shapes["loopback"] {
		t.Fatalf("span shapes diverge across transports:\n local    %q\n loopback %q",
			shapes["local"], shapes["loopback"])
	}
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
