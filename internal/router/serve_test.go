package router

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"gcplus/internal/cache"
	"gcplus/internal/changeplan"
	"gcplus/internal/core"
	"gcplus/internal/dataset"
	"gcplus/internal/graph"
	"gcplus/internal/subiso"
	"gcplus/internal/synthetic"
)

// genGraphs synthesizes a small AIDS-like dataset.
func genGraphs(t testing.TB, n int, seed int64) []*graph.Graph {
	t.Helper()
	cfg := synthetic.Default().WithGraphs(n)
	cfg.MeanVertices = 14
	cfg.StdVertices = 5
	cfg.MaxVertices = 30
	cfg.Seed = seed
	gs, err := synthetic.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return gs
}

// groundTruth builds the single-threaded no-cache reference runtime (pure
// Method M) over ds.
func groundTruth(t testing.TB, ds *dataset.Dataset) *core.Runtime {
	t.Helper()
	algo, err := subiso.New("VF2")
	if err != nil {
		t.Fatal(err)
	}
	rt, err := core.NewRuntime(ds, core.Options{Algorithm: algo})
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

// subQ and superQ run one unlimited query without a caller deadline.
func subQ(s *Server, q *graph.Graph) (*QueryResult, error) {
	return s.Query(context.Background(), cache.KindSub, q, 0)
}

func superQ(s *Server, q *graph.Graph) (*QueryResult, error) {
	return s.Query(context.Background(), cache.KindSuper, q, 0)
}

// testQueries derives a mix of small pattern queries from dataset labels.
func testQueries(initial []*graph.Graph) []*graph.Graph {
	var qs []*graph.Graph
	for i := 0; i < 6 && i < len(initial); i++ {
		g := initial[i]
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

func equalIDs(a, b []int) bool {
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

func TestQueryMatchesGroundTruthAcrossShardCounts(t *testing.T) {
	initial := genGraphs(t, 60, 11)
	mirror := dataset.New(initial)
	gt := groundTruth(t, mirror)
	queries := testQueries(initial)
	if len(queries) == 0 {
		t.Fatal("no test queries generated")
	}

	for _, shards := range []int{1, 3, 4, 7} {
		srv, err := New(initial, Options{Shards: shards, Method: "VF2"})
		if err != nil {
			t.Fatal(err)
		}
		for qi, q := range queries {
			want, err := gt.SubgraphQuery(q)
			if err != nil {
				t.Fatal(err)
			}
			got, err := subQ(srv, q)
			if err != nil {
				t.Fatal(err)
			}
			if !equalIDs(got.IDs, want.AnswerIDs()) {
				t.Fatalf("shards=%d sub query %d: got %v want %v", shards, qi, got.IDs, want.AnswerIDs())
			}
			if got.Candidates != 60 {
				t.Fatalf("shards=%d: candidates %d, want 60", shards, got.Candidates)
			}

			wantSuper, err := gt.SupergraphQuery(q)
			if err != nil {
				t.Fatal(err)
			}
			gotSuper, err := superQ(srv, q)
			if err != nil {
				t.Fatal(err)
			}
			if !equalIDs(gotSuper.IDs, wantSuper.AnswerIDs()) {
				t.Fatalf("shards=%d super query %d: got %v want %v", shards, qi, gotSuper.IDs, wantSuper.AnswerIDs())
			}
		}
		srv.Close()
	}
}

func TestUpdateRoutingMatchesMirror(t *testing.T) {
	initial := genGraphs(t, 40, 23)
	srv, err := New(initial, Options{Shards: 4, Method: "VF2"})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	mirror := dataset.New(initial)
	gt := groundTruth(t, mirror)
	queries := testQueries(initial)
	rng := rand.New(rand.NewSource(99))

	for batch := 1; batch <= 12; batch++ {
		ops := randomOps(rng, mirror, initial, 5)
		// Mirror first: records the expected per-op outcome, including
		// the global id an ADD must receive.
		type expOp struct {
			id int
			ok bool
		}
		exp := make([]expOp, len(ops))
		for i, op := range ops {
			id, err := op.Apply(mirror)
			exp[i] = expOp{id: id, ok: err == nil}
		}
		res, err := srv.Update(ops)
		if err != nil {
			t.Fatal(err)
		}
		if res.Epoch != uint64(batch) {
			t.Fatalf("batch %d: epoch %d", batch, res.Epoch)
		}
		for i := range ops {
			gotOK := res.Ops[i].Err == nil
			if gotOK != exp[i].ok {
				t.Fatalf("batch %d op %d (%v): server ok=%v mirror ok=%v (err=%v)",
					batch, i, ops[i], gotOK, exp[i].ok, res.Ops[i].Err)
			}
			if gotOK && res.Ops[i].ID != exp[i].id {
				t.Fatalf("batch %d op %d (%v): server id %d, mirror id %d",
					batch, i, ops[i], res.Ops[i].ID, exp[i].id)
			}
		}
		for qi, q := range queries {
			want, err := gt.SubgraphQuery(q)
			if err != nil {
				t.Fatal(err)
			}
			got, err := subQ(srv, q)
			if err != nil {
				t.Fatal(err)
			}
			if !equalIDs(got.IDs, want.AnswerIDs()) {
				t.Fatalf("batch %d query %d: got %v want %v", batch, qi, got.IDs, want.AnswerIDs())
			}
			if got.Epoch != uint64(batch) {
				t.Fatalf("batch %d query %d: epoch %d", batch, qi, got.Epoch)
			}
		}
	}
}

func TestUpdateErrors(t *testing.T) {
	initial := genGraphs(t, 8, 3)
	srv, err := New(initial, Options{Shards: 2, Method: "VF2"})
	if err != nil {
		t.Fatal(err)
	}

	if _, err := srv.Update(nil); err == nil {
		t.Fatal("empty batch: want error")
	}
	res, err := srv.Update([]changeplan.Op{
		changeplan.DeleteOp(2),
		changeplan.DeleteOp(2),   // already deleted
		changeplan.DeleteOp(999), // out of range
		{Type: dataset.OpAdd},    // nil graph
		changeplan.AddEdgeOp(0, 0, 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Applied != 1 {
		t.Fatalf("applied %d, want 1", res.Applied)
	}
	for i := 1; i < len(res.Ops); i++ {
		if res.Ops[i].Err == nil {
			t.Fatalf("op %d: want per-op error", i)
		}
		if res.Ops[i].ID != -1 {
			t.Fatalf("op %d: id %d, want -1", i, res.Ops[i].ID)
		}
	}

	srv.Close()
	if _, err := subQ(srv, graph.Path(1, 2)); err != ErrClosed {
		t.Fatalf("query after close: %v, want ErrClosed", err)
	}
	if _, err := srv.Update([]changeplan.Op{changeplan.DeleteOp(0)}); err != ErrClosed {
		t.Fatalf("update after close: %v, want ErrClosed", err)
	}
	if _, err := srv.Stats(); err != ErrClosed {
		t.Fatalf("stats after close: %v, want ErrClosed", err)
	}
	srv.Close() // idempotent
}

func TestStatsSnapshot(t *testing.T) {
	initial := genGraphs(t, 30, 5)
	srv, err := New(initial, Options{Shards: 3, Method: "VF2"})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	queries := testQueries(initial)
	for _, q := range queries {
		if _, err := subQ(srv, q); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := srv.Update([]changeplan.Op{changeplan.DeleteOp(0)}); err != nil {
		t.Fatal(err)
	}
	st, err := srv.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Shards != 3 || len(st.PerShard) != 3 {
		t.Fatalf("shards: %+v", st)
	}
	if st.Epoch != 1 {
		t.Fatalf("epoch %d, want 1", st.Epoch)
	}
	if st.LiveGraphs != 29 {
		t.Fatalf("live graphs %d, want 29", st.LiveGraphs)
	}
	if st.Queries != int64(len(queries)) {
		t.Fatalf("queries %d, want %d", st.Queries, len(queries))
	}
	for _, ss := range st.PerShard {
		if ss.Metrics.Queries != int64(len(queries)) {
			t.Fatalf("shard %d queries %d, want %d", ss.Shard, ss.Metrics.Queries, len(queries))
		}
		if ss.Cache.Capacity != 100 || ss.Cache.Model != "CON" {
			t.Fatalf("shard %d cache snapshot: %+v", ss.Shard, ss.Cache)
		}
	}
}

// randomOps resolves n random operations against the mirror's current
// state. Ops later invalidated by earlier ops in the same batch fail
// identically on server and mirror, which the callers treat as a matched
// outcome.
func randomOps(rng *rand.Rand, mirror *dataset.Dataset, pool []*graph.Graph, n int) []changeplan.Op {
	ops := make([]changeplan.Op, 0, n)
	for len(ops) < n {
		switch rng.Intn(4) {
		case 0:
			ops = append(ops, changeplan.AddOp(pool[rng.Intn(len(pool))].Clone()))
		case 1:
			ids := mirror.LiveIDs()
			if len(ids) <= 1 {
				continue
			}
			ops = append(ops, changeplan.DeleteOp(ids[rng.Intn(len(ids))]))
		case 2:
			ids := mirror.LiveIDs()
			id := ids[rng.Intn(len(ids))]
			g := mirror.Graph(id)
			nv := g.NumVertices()
			if nv < 2 {
				continue
			}
			u, v := rng.Intn(nv), rng.Intn(nv)
			if u == v || g.HasEdge(u, v) {
				continue
			}
			ops = append(ops, changeplan.AddEdgeOp(id, u, v))
		default:
			ids := mirror.LiveIDs()
			id := ids[rng.Intn(len(ids))]
			g := mirror.Graph(id)
			if g.NumEdges() == 0 {
				continue
			}
			es := g.EdgeList()
			ed := es[rng.Intn(len(es))]
			ops = append(ops, changeplan.RemoveEdgeOp(id, int(ed.U), int(ed.V)))
		}
	}
	return ops
}

// TestStressConcurrentQueriesWithSerializedUpdates is the concurrency
// acceptance test: ≥4 shards serving concurrent sub/supergraph queries
// while a writer applies serialized update batches. Every answer must
// equal the single-threaded no-cache ground truth at the epoch the
// answer reports — the paper's no-false-positives / no-false-negatives
// guarantee (Theorems 3 & 6) carried into concurrent serving. Run under
// -race this also proves the shard workers, the epoch sequencer and the
// id translation maps are data-race free.
func TestStressConcurrentQueriesWithSerializedUpdates(t *testing.T) {
	const (
		shards  = 5
		readers = 8
		batches = 20
		opsPer  = 5
	)
	initial := genGraphs(t, 70, 31)
	srv, err := New(initial, Options{Shards: shards, Method: "VF2",
		Cache: &cache.Config{Capacity: 40, WindowSize: 5}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	mirror := dataset.New(initial)
	gt := groundTruth(t, mirror)
	queries := testQueries(initial)

	// expected[e][qi] is the ground-truth answer of query qi at epoch e;
	// odd qi run as supergraph queries. Written only by the writer (the
	// test goroutine), read only after the readers have joined.
	expected := make([][][]int, batches+1)
	compute := func() [][]int {
		out := make([][]int, len(queries))
		for qi, q := range queries {
			var res *core.Result
			var err error
			if qi%2 == 0 {
				res, err = gt.SubgraphQuery(q)
			} else {
				res, err = gt.SupergraphQuery(q)
			}
			if err != nil {
				t.Error(err)
				return nil
			}
			out[qi] = res.AnswerIDs()
		}
		return out
	}
	expected[0] = compute()

	type observation struct {
		qi    int
		epoch uint64
		ids   []int
	}
	observations := make([][]observation, readers)
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(readers)
	for r := 0; r < readers; r++ {
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + r)))
			for !stop.Load() {
				qi := rng.Intn(len(queries))
				var res *QueryResult
				var err error
				if qi%2 == 0 {
					res, err = subQ(srv, queries[qi])
				} else {
					res, err = superQ(srv, queries[qi])
				}
				if err != nil {
					t.Error(err)
					return
				}
				observations[r] = append(observations[r], observation{qi: qi, epoch: res.Epoch, ids: res.IDs})
			}
		}(r)
	}

	rng := rand.New(rand.NewSource(77))
	for b := 1; b <= batches; b++ {
		ops := randomOps(rng, mirror, initial, opsPer)
		type expOp struct {
			id int
			ok bool
		}
		exp := make([]expOp, len(ops))
		for i, op := range ops {
			id, err := op.Apply(mirror)
			exp[i] = expOp{id: id, ok: err == nil}
		}
		res, err := srv.Update(ops)
		if err != nil {
			t.Fatal(err)
		}
		if res.Epoch != uint64(b) {
			t.Fatalf("batch %d: epoch %d", b, res.Epoch)
		}
		for i := range ops {
			if (res.Ops[i].Err == nil) != exp[i].ok || (exp[i].ok && res.Ops[i].ID != exp[i].id) {
				t.Fatalf("batch %d op %d (%v): server %+v, mirror %+v", b, i, ops[i], res.Ops[i], exp[i])
			}
		}
		expected[b] = compute()
	}
	stop.Store(true)
	wg.Wait()

	total := 0
	for r, obs := range observations {
		for _, o := range obs {
			total++
			if o.epoch > uint64(batches) {
				t.Fatalf("reader %d: impossible epoch %d", r, o.epoch)
			}
			if !equalIDs(o.ids, expected[o.epoch][o.qi]) {
				t.Fatalf("reader %d query %d at epoch %d: got %v, ground truth %v",
					r, o.qi, o.epoch, o.ids, expected[o.epoch][o.qi])
			}
		}
	}
	if total == 0 {
		t.Fatal("no concurrent observations recorded")
	}
	t.Logf("verified %d concurrent answers against ground truth across %d epochs", total, batches+1)
}

// TestMergeSortedAnyShardCount: the pairwise merge of the per-shard
// answer lists equals the sorted union for every shard count, with
// empty lists among them and ids placed round-robin as the router
// places graphs.
func TestMergeSortedAnyShardCount(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for shards := 1; shards <= 7; shards++ {
		for trial := 0; trial < 20; trial++ {
			lists := make([][]int, shards)
			var want []int
			for id := 0; id < 200; id++ {
				if rng.Intn(3) == 0 && (shards == 1 || id%shards != trial%shards) {
					lists[id%shards] = append(lists[id%shards], id)
					want = append(want, id)
				}
			}
			got := mergeSorted(lists)
			if len(got) != len(want) {
				t.Fatalf("%d shards: merged %d ids, want %d", shards, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%d shards: merged %v, want %v", shards, got, want)
				}
			}
		}
	}
}
