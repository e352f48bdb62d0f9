package core_test

// The differential consistency oracle: every cache configuration —
// CON, CON with background repair, EVI, and the strict-invalidation
// ablation — must produce answers bit-identical to a cache-disabled
// ground-truth runtime under randomized change plans and mixed
// sub/supergraph query workloads. This is the empirical form of
// Theorems 3 and 6 (no false positives, no false negatives) extended to
// the repair pipeline: repair restores only verified facts, so it must
// never be observable in answers, only in how few sub-iso tests they
// cost. A concurrent variant drives the sharded serving front-end with
// repair workers active against serialized update batches; run under
// -race it also proves the repair pipeline is data-race free.

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"gcplus/internal/bitset"
	"gcplus/internal/cache"
	"gcplus/internal/changeplan"
	"gcplus/internal/core"
	"gcplus/internal/dataset"
	"gcplus/internal/graph"
	"gcplus/internal/router"
	"gcplus/internal/subiso"
	"gcplus/internal/testutil"
)

// oracleSeeds are the seeds every oracle property runs under.
var oracleSeeds = []int64{1, 7, 42}

// oracleSystem is one runtime under test plus its private dataset copy.
type oracleSystem struct {
	name   string
	ds     *dataset.Dataset
	rt     *core.Runtime
	repair bool // drive the repair pipeline between steps
	stream bool // run every query through the streaming path
}

// newOracleSystems builds the ground-truth runtime plus every cache
// configuration over identical private copies of the initial graphs. A
// nil method is the shipped default, VF2+; the systems pinned to each of
// subiso.Names() verify with other algorithms, and the answers must not
// differ.
func newOracleSystems(t *testing.T, initial []*graph.Graph) (gt *oracleSystem, systems []*oracleSystem) {
	t.Helper()
	build := func(name string, cfg *cache.Config, repair bool, method subiso.Algorithm) *oracleSystem {
		cloned := make([]*graph.Graph, len(initial))
		for i, g := range initial {
			cloned[i] = g.Clone()
		}
		ds := dataset.New(cloned)
		rt, err := core.NewRuntime(ds, core.Options{Algorithm: method, Cache: cfg})
		if err != nil {
			t.Fatal(err)
		}
		return &oracleSystem{name: name, ds: ds, rt: rt, repair: repair}
	}
	small := func(extra func(*cache.Config)) *cache.Config {
		cfg := &cache.Config{Capacity: 30, WindowSize: 5}
		if extra != nil {
			extra(cfg)
		}
		return cfg
	}
	gt = build("ground-truth", nil, false, subiso.VF2{})
	systems = []*oracleSystem{
		build("CON", small(nil), false, nil),
		build("CON+repair", small(func(c *cache.Config) { c.RepairQueue = 4096 }), true, nil),
		build("EVI", small(func(c *cache.Config) { c.Model = cache.ModelEVI }), false, nil),
		build("strict", small(func(c *cache.Config) { c.StrictInvalidation = true }), false, nil),
		build("strict+repair", small(func(c *cache.Config) {
			c.StrictInvalidation = true
			c.RepairQueue = 4096
		}), true, nil),
	}
	// Pinning Method M, as the paper's figures do, must be
	// answer-invisible whichever algorithm is pinned.
	for _, name := range subiso.Names() {
		algo, err := subiso.New(name)
		if err != nil {
			t.Fatal(err)
		}
		systems = append(systems, build("CON+"+name, small(nil), false, algo))
	}
	// Streaming variants answer every query through the streaming loop
	// with a Limit one past the live graph count, so it never stops: the
	// answer must be bit-identical to the exact path and not truncated.
	stream := build("CON+stream", small(nil), false, nil)
	stream.stream = true
	streamPinned := build("CON+VF2+stream", small(nil), false, subiso.VF2{})
	streamPinned.stream = true
	systems = append(systems, stream, streamPinned)
	return gt, systems
}

// oracleOps resolves n random change operations against the ground
// truth's current state; the identical resolved ops are then applied to
// every system. UA/UR dominate so validity bits churn.
func oracleOps(rng *rand.Rand, ds *dataset.Dataset, pool []*graph.Graph, n int) []changeplan.Op {
	ops := make([]changeplan.Op, 0, n)
	for tries := 0; len(ops) < n && tries < 64*n; tries++ {
		ids := ds.LiveIDs()
		switch rng.Intn(8) {
		case 0: // ADD
			ops = append(ops, changeplan.AddOp(pool[rng.Intn(len(pool))].Clone()))
		case 1: // DEL
			if len(ids) <= 4 {
				continue
			}
			ops = append(ops, changeplan.DeleteOp(ids[rng.Intn(len(ids))]))
		case 2, 3, 4: // UA
			id := ids[rng.Intn(len(ids))]
			g := ds.Graph(id)
			nv := g.NumVertices()
			if nv < 2 {
				continue
			}
			u, v := rng.Intn(nv), rng.Intn(nv)
			if u == v || g.HasEdge(u, v) {
				continue
			}
			ops = append(ops, changeplan.AddEdgeOp(id, u, v))
		default: // UR
			id := ids[rng.Intn(len(ids))]
			g := ds.Graph(id)
			if g.NumEdges() == 0 {
				continue
			}
			es := g.EdgeList()
			e := es[rng.Intn(len(es))]
			ops = append(ops, changeplan.RemoveEdgeOp(id, int(e.U), int(e.V)))
		}
	}
	return ops
}

// oracleQuery draws a query: usually a fresh BFS extract from a live
// graph (the paper's Type A generation), sometimes a repeat of an
// earlier query so cache hits and the §6.3 optimal cases fire.
func oracleQuery(rng *rand.Rand, ds *dataset.Dataset, history []*graph.Graph) *graph.Graph {
	if len(history) > 0 && rng.Float64() < 0.4 {
		return history[rng.Intn(len(history))]
	}
	ids := ds.LiveIDs()
	g := ds.Graph(ids[rng.Intn(len(ids))])
	q := testutil.BFSExtract(rng, g, rng.Intn(g.NumVertices()), 1+rng.Intn(4))
	if q.NumVertices() == 0 {
		return graph.Path(g.Label(0))
	}
	return q
}

func TestDifferentialConsistencyOracle(t *testing.T) {
	for _, seed := range oracleSeeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(seed))
			initial := make([]*graph.Graph, 24)
			for i := range initial {
				initial[i] = testutil.RandomConnectedGraph(rng, 4+rng.Intn(8), 4, 0.25)
			}
			gt, systems := newOracleSystems(t, initial)
			var history []*graph.Graph

			const steps = 70
			for step := 0; step < steps; step++ {
				// Randomized change plan: a batch lands before ~1/3 of
				// the queries, applied identically everywhere.
				if rng.Intn(3) == 0 {
					ops := oracleOps(rng, gt.ds, initial, 1+rng.Intn(4))
					for _, op := range ops {
						_, wantErr := op.Apply(gt.ds)
						for _, sys := range systems {
							if _, err := op.Apply(sys.ds); (err == nil) != (wantErr == nil) {
								t.Fatalf("step %d: %v diverged on %s: gt err=%v, got err=%v",
									step, op, sys.name, wantErr, err)
							}
						}
					}
				}

				// Drive the repair pipeline through its exported phases
				// on a random subset of steps: full drains, partial
				// drains and parallel verification all interleave with
				// queries and later invalidations.
				for _, sys := range systems {
					if !sys.repair || rng.Intn(2) == 0 {
						continue
					}
					sys.rt.Sync() // discover invalidations off the query path
					if rng.Intn(4) == 0 {
						sys.rt.Repair(0, 1) // drain fully
					} else {
						jobs := sys.rt.PlanRepairs(1 + rng.Intn(8))
						sys.rt.CommitRepairs(sys.rt.VerifyRepairs(jobs, 1+rng.Intn(3)))
					}
					testutil.RequireCacheIndex(t, sys.rt.Cache())
				}

				q := oracleQuery(rng, gt.ds, history)
				history = append(history, q)
				super := rng.Intn(2) == 1
				run := func(sys *oracleSystem) *bitset.Set {
					var res *core.Result
					var err error
					var opt core.QueryOptions
					if sys.stream {
						opt.Limit = sys.ds.LiveCount() + 1
					}
					if super {
						res, err = sys.rt.SupergraphQueryCtx(context.Background(), q, opt)
					} else {
						res, err = sys.rt.SubgraphQueryCtx(context.Background(), q, opt)
					}
					if err != nil {
						t.Fatalf("step %d: %s query failed: %v", step, sys.name, err)
					}
					if sys.stream && res.Stats.Truncated {
						t.Fatalf("step %d: %s full stream reported Truncated", step, sys.name)
					}
					return res.Answer
				}
				want := run(gt)
				for _, sys := range systems {
					if got := run(sys); !got.Equal(want) {
						t.Fatalf("step %d (super=%v, query %s): %s answered %v, ground truth %v",
							step, super, q.Name(), sys.name, got.Indices(), want.Indices())
					}
					testutil.RequireCacheIndex(t, sys.rt.Cache())
				}
			}

			// Final accounting: the repair systems must actually have
			// repaired something, or the property proved nothing.
			repaired := int64(0)
			for _, sys := range systems {
				if sys.repair {
					sys.rt.Sync()
					sys.rt.Repair(0, 2)
					st := sys.rt.CacheStats()
					repaired += st.RepairedBits
					if st.PendingRepairs != 0 {
						t.Fatalf("%s: %d pairs still pending after full repair", sys.name, st.PendingRepairs)
					}
				}
			}
			if repaired == 0 {
				t.Fatal("repair pipeline never restored a bit; oracle exercised nothing")
			}
			// Same for plan reuse: the 40%-repeat query stream must have
			// hit every system's compiled-plan cache.
			for _, sys := range systems {
				if sys.rt.Metrics().PlanCacheHits == 0 {
					t.Fatalf("%s never hit the plan cache; oracle exercised no plan reuse", sys.name)
				}
			}
		})
	}
}

// TestOracleConcurrentRepair is the -race variant: a sharded server
// with background repair workers active serves concurrent sub/super
// queries from reader goroutines while the test goroutine applies
// serialized churn-heavy update batches. Every observed answer must be
// bit-identical to the cache-disabled ground truth at the epoch the
// answer reports. Method M is pinned to VF2 here, so queries and
// background repair verify with the same algorithm.
func TestOracleConcurrentRepair(t *testing.T) {
	for _, seed := range oracleSeeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			concurrentOracleRound(t, seed, "VF2", router.TransportLocal)
		})
	}
}

// TestOracleConcurrentLoopback re-runs the concurrent oracle with the
// router reaching its shards over the loopback TCP transport: the wire
// seam must not bend a single answer even under concurrent churn and
// repair. One seed keeps the wall-clock cost of the wire path bounded.
func TestOracleConcurrentLoopback(t *testing.T) {
	concurrentOracleRound(t, 42, "VF2", router.TransportLoopback)
}

// TestOracleConcurrentPlanner is the same -race property at the shipped
// default: every shard verifies with VF2+, queries on the owner and
// repair off it, and concurrent plan reuse across repeated queries must
// never bend an answer.
func TestOracleConcurrentPlanner(t *testing.T) {
	for _, seed := range oracleSeeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			concurrentOracleRound(t, seed, "", router.TransportLocal)
		})
	}
}

func concurrentOracleRound(t *testing.T, seed int64, method, transport string) {
	const (
		shards  = 3
		readers = 4
		batches = 12
		opsPer  = 4
	)
	rng := rand.New(rand.NewSource(seed))
	initial := make([]*graph.Graph, 36)
	for i := range initial {
		initial[i] = testutil.RandomConnectedGraph(rng, 4+rng.Intn(8), 4, 0.25)
	}
	srv, err := router.New(initial, router.Options{
		Shards:            shards,
		Method:            method,
		RepairParallelism: 2,
		Transport:         transport,
		Cache:             &cache.Config{Capacity: 20, WindowSize: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	mirrorGraphs := make([]*graph.Graph, len(initial))
	for i, g := range initial {
		mirrorGraphs[i] = g.Clone()
	}
	mirror := dataset.New(mirrorGraphs)
	gtRT, err := core.NewRuntime(mirror, core.Options{Algorithm: subiso.VF2{}})
	if err != nil {
		t.Fatal(err)
	}

	var queries []*graph.Graph
	for i := 0; i < 8; i++ {
		q := testutil.BFSExtract(rng, initial[rng.Intn(len(initial))], 0, 1+rng.Intn(3))
		if q.NumVertices() > 0 {
			queries = append(queries, q)
		}
	}
	if len(queries) == 0 {
		t.Fatal("no queries generated")
	}

	// expected[e][qi] is the ground-truth answer at epoch e (odd qi run
	// as supergraph queries); written only by the test goroutine, read
	// after the readers join.
	expected := make([][][]int, batches+1)
	compute := func() [][]int {
		out := make([][]int, len(queries))
		for qi, q := range queries {
			var res *core.Result
			var err error
			if qi%2 == 0 {
				res, err = gtRT.SubgraphQuery(q)
			} else {
				res, err = gtRT.SupergraphQuery(q)
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
			rng := rand.New(rand.NewSource(seed*1000 + int64(r)))
			for !stop.Load() {
				qi := rng.Intn(len(queries))
				var res *router.QueryResult
				var err error
				if qi%2 == 0 {
					res, err = srv.Query(context.Background(), cache.KindSub, queries[qi], 0)
				} else {
					res, err = srv.Query(context.Background(), cache.KindSuper, queries[qi], 0)
				}
				if err != nil {
					t.Error(err)
					return
				}
				observations[r] = append(observations[r], observation{qi: qi, epoch: res.Epoch, ids: res.IDs})
			}
		}(r)
	}

	for b := 1; b <= batches; b++ {
		ops := oracleOps(rng, mirror, initial, opsPer)
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
			if !equalIntSlices(o.ids, expected[o.epoch][o.qi]) {
				t.Fatalf("reader %d query %d at epoch %d: got %v, ground truth %v",
					r, o.qi, o.epoch, o.ids, expected[o.epoch][o.qi])
			}
		}
	}
	if total == 0 {
		t.Fatal("no concurrent observations recorded")
	}
	st, err := srv.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.PlanCacheHits == 0 {
		t.Fatal("round never hit the plan cache; property exercised no plan reuse")
	}
	t.Logf("seed %d: verified %d concurrent answers across %d epochs; repaired_bits=%d pending=%d validity=%.3f plan_hits=%d",
		seed, total, batches+1, st.RepairedBits, st.PendingRepairs, st.ValidityRatio, st.PlanCacheHits)
}

func equalIntSlices(a, b []int) bool {
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
