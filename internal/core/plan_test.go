package core

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"gcplus/internal/cache"
	"gcplus/internal/dataset"
	"gcplus/internal/graph"
	"gcplus/internal/subiso"
	"gcplus/internal/testutil"
)

// TestAvgTestCostGating pins the cost-estimator sampling gate: bypassed
// queries and tiny candidate sets must not feed avgTestCost. Pre-fix,
// every query with at least one test polluted the estimator — a bypassed
// query runs outside the cache books, and a 3-test query's per-test
// "cost" is mostly matcher compilation, so both skewed the costEst used
// by HD/PINC admission scoring.
func TestAvgTestCostGating(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	pool := make([]*graph.Graph, 12)
	for i := range pool {
		pool[i] = testutil.RandomConnectedGraph(rng, 8+rng.Intn(8), 4, 0.15)
	}
	cfg := &cache.Config{Capacity: 30, WindowSize: 5}
	r, err := NewRuntime(dataset.New(pool), Options{Algorithm: subiso.VF2{}, Cache: cfg})
	if err != nil {
		t.Fatal(err)
	}
	q := testutil.BFSExtract(rng, pool[0], 0, 3)

	// Bypassed query over >= minCostSampleTests candidates: no sample.
	res, err := r.SubgraphQueryCtx(context.Background(), q, QueryOptions{BypassCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.SubIsoTests < minCostSampleTests {
		t.Fatalf("fixture too small: %d tests, want >= %d", res.Stats.SubIsoTests, minCostSampleTests)
	}
	if !res.Stats.CacheBypassed {
		t.Fatal("expected CacheBypassed")
	}
	if n := r.avgTestCost.N(); n != 0 {
		t.Fatalf("bypassed query polluted avgTestCost: N = %d, want 0", n)
	}

	// Tiny candidate set (below the sample floor): no sample either.
	rSmall, err := NewRuntime(dataset.New(pool[:4]), Options{Algorithm: subiso.VF2{}})
	if err != nil {
		t.Fatal(err)
	}
	res, err = rSmall.SubgraphQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.SubIsoTests >= minCostSampleTests {
		t.Fatalf("fixture too large: %d tests", res.Stats.SubIsoTests)
	}
	if n := rSmall.avgTestCost.N(); n != 0 {
		t.Fatalf("tiny candidate set polluted avgTestCost: N = %d, want 0", n)
	}

	// A normal query over a big enough set is a sample.
	if _, err := r.SubgraphQuery(q); err != nil {
		t.Fatal(err)
	}
	if n := r.avgTestCost.N(); n < 1 {
		t.Fatalf("normal query not sampled: N = %d, want >= 1", n)
	}
}

// TestParallelVerifyCancelAccounting pins the cancellation accounting of
// the verification pool: a cancelled parallel verify must book every
// worker's busy time into VerifyCPUTime (not bail at the first cancelled
// worker) and report the fan-out width, so verify_cpu_sec stays honest
// exactly when operators read it — under deadline pressure.
func TestParallelVerifyCancelAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	pool := make([]*graph.Graph, 256)
	for i := range pool {
		pool[i] = testutil.RandomConnectedGraph(rng, 8+rng.Intn(10), 4, 0.15)
	}
	r, err := NewRuntime(dataset.New(pool), Options{Algorithm: subiso.VF2{}, VerifyParallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	q := testutil.BFSExtract(rng, pool[0], 0, 3)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // every worker hits its first checkpoint already cancelled

	live := r.ds.LiveSnapshot()
	csm := live.Clone()
	st := QueryStats{Kind: cache.KindSub, CandidatesBefore: csm.Count()}
	pl := r.planner.compile(q, cache.KindSub)
	_, err = r.verify(ctx, pl, csm, &st, 0)
	var ce *CancelError
	if !errors.As(err, &ce) || ce.Stage != "verify" {
		t.Fatalf("want *CancelError at stage verify, got %v", err)
	}
	if st.VerifyWorkers != 4 {
		t.Fatalf("VerifyWorkers = %d, want 4", st.VerifyWorkers)
	}
	if st.VerifyCPUTime <= 0 {
		t.Fatalf("cancelled parallel verify dropped worker busy time: VerifyCPUTime = %v", st.VerifyCPUTime)
	}
	if st.VerifyTime <= 0 {
		t.Fatalf("VerifyTime = %v, want > 0", st.VerifyTime)
	}

	// Sequential path: the busy time up to the checkpoint is booked too.
	csm2 := live.Clone()
	st2 := QueryStats{Kind: cache.KindSub, CandidatesBefore: csm2.Count()}
	_, err = r.verify(ctx, pl, csm2, &st2, 1)
	if !errors.As(err, &ce) || ce.Stage != "verify" {
		t.Fatalf("want *CancelError at stage verify, got %v", err)
	}
	if st2.VerifyWorkers != 1 {
		t.Fatalf("VerifyWorkers = %d, want 1", st2.VerifyWorkers)
	}
	if st2.VerifyCPUTime <= 0 {
		t.Fatalf("cancelled sequential verify dropped busy time: VerifyCPUTime = %v", st2.VerifyCPUTime)
	}
}

// TestPlanCacheReuse exercises the compiled-plan cache's reuse tiers:
// pointer-identical repeat and structurally equal repeat (clone) hit, and
// the isomorphic-but-renumbered case must be a miss — its compiled
// matchers would test against the wrong vertex numbering — while every
// answer stays bit-identical to the brute-force ground truth.
func TestPlanCacheReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	pool := make([]*graph.Graph, 40)
	for i := range pool {
		pool[i] = testutil.RandomConnectedGraph(rng, 8+rng.Intn(10), 4, 0.15)
	}
	ds := dataset.New(pool)
	r, err := NewRuntime(ds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	check := func(q *graph.Graph, wantCached bool, what string) {
		t.Helper()
		got, err := r.SubgraphQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		if want := testutil.GroundTruthSub(ds, q); !got.Answer.Equal(want) {
			t.Fatalf("%s: answer %v != ground truth %v", what, got.AnswerIDs(), want.Indices())
		}
		if got.Stats.PlanAlgorithm == "" {
			t.Fatalf("%s: PlanAlgorithm empty", what)
		}
		if got.Stats.PlanCached != wantCached {
			t.Fatalf("%s: PlanCached = %v, want %v", what, got.Stats.PlanCached, wantCached)
		}
	}

	q := testutil.BFSExtract(rng, pool[0], 0, 4)
	check(q, false, "first execution")
	check(q, true, "pointer repeat")
	check(q.Clone(), true, "structural clone")

	// Same canonical key, different vertex numbering: a confirmed miss.
	a := graph.Path(1, 2, 3)
	b := graph.Path(3, 2, 1)
	check(a, false, "path 1-2-3")
	check(b, false, "renumbered isomorph 3-2-1")

	m := r.Metrics()
	if m.PlanCacheHits != 2 || m.PlanCacheMisses != 3 {
		t.Fatalf("plan cache hits/misses = %d/%d, want 2/3", m.PlanCacheHits, m.PlanCacheMisses)
	}
}

// planStream is a query stream whose every query runs against a dataset
// big enough to count as a cost sample (>= minCostSampleTests tests on a
// cache-less runtime).
func planStream(t *testing.T, seed int64) (*dataset.Dataset, []*graph.Graph) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	pool := make([]*graph.Graph, 3*minCostSampleTests)
	for i := range pool {
		pool[i] = testutil.RandomConnectedGraph(rng, 8+rng.Intn(8), 4, 0.15)
	}
	queries := make([]*graph.Graph, 36)
	for i := range queries {
		queries[i] = testutil.BFSExtract(rng, pool[rng.Intn(len(pool))], 0, 2+rng.Intn(4))
	}
	return dataset.New(pool), queries
}

// TestPinnedMethodNeverSwitches pins Method M as a per-runtime constant:
// a named Method runs every query, and an unset one is VF2+ — it reports
// VF2+ on every subgraph and supergraph query and does exactly the work,
// test for test and state for state, of a runtime pinned to VF2+.
func TestPinnedMethodNeverSwitches(t *testing.T) {
	newRT := func(ds *dataset.Dataset, algo subiso.Algorithm) *Runtime {
		t.Helper()
		r, err := NewRuntime(ds, Options{Algorithm: algo})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	for _, name := range subiso.Names() {
		algo, err := subiso.New(name)
		if err != nil {
			t.Fatal(err)
		}
		ds, queries := planStream(t, 5)
		r := newRT(ds, algo)
		for i, q := range queries {
			res, err := r.SubgraphQuery(q)
			if err != nil {
				t.Fatal(err)
			}
			if res.Stats.PlanAlgorithm != name {
				t.Fatalf("pinned %s: query %d ran %s", name, i, res.Stats.PlanAlgorithm)
			}
		}
	}

	ds, queries := planStream(t, 5)
	unpinned, pinned := newRT(ds, nil), newRT(ds, subiso.VF2Plus{})
	for _, kind := range []cache.Kind{cache.KindSub, cache.KindSuper} {
		for i, q := range queries {
			run := func(r *Runtime) *Result {
				t.Helper()
				res, err := r.SubgraphQuery(q)
				if kind == cache.KindSuper {
					res, err = r.SupergraphQuery(q)
				}
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			got, want := run(unpinned), run(pinned)
			if got.Stats.PlanAlgorithm != "VF2+" {
				t.Fatalf("%s query %d: unpinned runtime ran %s, want VF2+", kind, i, got.Stats.PlanAlgorithm)
			}
			if !got.Answer.Equal(want.Answer) {
				t.Fatalf("%s query %d: answer %v, pinned VF2+ %v", kind, i, got.AnswerIDs(), want.AnswerIDs())
			}
			if got.Stats.SubIsoTests != want.Stats.SubIsoTests || got.Stats.SearchStates != want.Stats.SearchStates {
				t.Fatalf("%s query %d: tests/states %d/%d, pinned VF2+ %d/%d", kind, i,
					got.Stats.SubIsoTests, got.Stats.SearchStates, want.Stats.SubIsoTests, want.Stats.SearchStates)
			}
		}
	}
}

// TestPlanCacheBounded pins the plan cache's memory bound by
// reachability, not by counting map entries: after far more distinct
// queries than the cache holds, at most planCacheSize of their graphs may
// still be alive (a cache-less runtime keeps a query graph only through
// its plan).
func TestPlanCacheBounded(t *testing.T) {
	r, err := NewRuntime(dataset.New([]*graph.Graph{graph.Path(1, 2)}), Options{})
	if err != nil {
		t.Fatal(err)
	}
	const total = 3 * planCacheSize
	var collected atomic.Int64
	for i := 0; i < total; i++ {
		// Distinct structures: a path of i+1 vertices.
		labels := make([]graph.Label, i+1)
		q := graph.Path(labels...)
		runtime.SetFinalizer(q, func(*graph.Graph) { collected.Add(1) })
		if _, err := r.SubgraphQuery(q); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(r.planner.byKey); n != planCacheSize {
		t.Fatalf("plan cache holds %d plans, want exactly %d", n, planCacheSize)
	}
	if n := len(r.planner.order); n != planCacheSize {
		t.Fatalf("eviction queue holds %d keys, want %d", n, planCacheSize)
	}
	want := int64(total - planCacheSize)
	for try := 0; try < 50 && collected.Load() < want; try++ {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	if got := collected.Load(); got < want {
		t.Fatalf("%d of %d query graphs still reachable after GC, plan cache holds %d", total-int(got), total, planCacheSize)
	}
	runtime.KeepAlive(r)
}

// TestStreamingVerify pins the streaming contract: with Limit k the
// answer is exactly the k smallest ids of the full answer set, a full
// stream is bit-identical to the exact path, and a truncated answer is
// never admitted to the cache.
func TestStreamingVerify(t *testing.T) {
	// Even ids contain the query path, odd ids do not: the full answer is
	// the 15 even ids, interleaved with non-answers so streaming has to
	// skip candidates between emissions.
	var pool []*graph.Graph
	for i := 0; i < 30; i++ {
		if i%2 == 0 {
			pool = append(pool, graph.Path(1, 2, 3))
		} else {
			pool = append(pool, graph.Path(4, 5, 6))
		}
	}
	q := graph.Path(1, 2)
	ctx := context.Background()

	r, err := NewRuntime(dataset.New(pool), Options{Algorithm: subiso.VF2{}})
	if err != nil {
		t.Fatal(err)
	}
	full, err := r.SubgraphQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	fullIDs := full.AnswerIDs()
	if len(fullIDs) != 15 {
		t.Fatalf("fixture: full answer has %d ids, want 15", len(fullIDs))
	}

	// Limit below the answer size: exact prefix, truncated.
	res, err := r.SubgraphQueryCtx(ctx, q, QueryOptions{Limit: 5})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.AnswerIDs(); len(got) != 5 {
		t.Fatalf("Limit=5 returned %d ids", len(got))
	} else {
		for i, id := range got {
			if id != fullIDs[i] {
				t.Fatalf("Limit=5 ids %v are not the smallest-5 prefix of %v", got, fullIDs[:5])
			}
		}
	}
	if !res.Stats.Truncated {
		t.Fatal("Limit=5 over 15 answers: Truncated not set")
	}

	// Limit above the answer size: complete and not truncated.
	res, err = r.SubgraphQueryCtx(ctx, q, QueryOptions{Limit: 100})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Answer.Equal(full.Answer) || res.Stats.Truncated {
		t.Fatalf("Limit=100: answer %v truncated=%v, want full answer untruncated",
			res.AnswerIDs(), res.Stats.Truncated)
	}

	// A Limit one past the answer size streams every candidate: the
	// answer is bit-identical to the exact path and not truncated.
	res, err = r.SubgraphQueryCtx(ctx, q, QueryOptions{Limit: len(fullIDs) + 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Answer.Equal(full.Answer) || res.Stats.Truncated {
		t.Fatal("full stream diverged from the exact answer")
	}

	// Early stop: truncated after exactly the 3 smallest answers.
	res, err = r.SubgraphQueryCtx(ctx, q, QueryOptions{Limit: 3})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.AnswerIDs(); !res.Stats.Truncated || len(got) != 3 || got[0] != fullIDs[0] || got[2] != fullIDs[2] {
		t.Fatalf("early stop: ids %v truncated=%v, want %v truncated", got, res.Stats.Truncated, fullIDs[:3])
	}

	// Cache interaction: a truncated answer must never be admitted; the
	// following exact query is, and an iso-hit repeat streams through the
	// §6.3 shortcut.
	rc, err := NewRuntime(dataset.New(pool), Options{
		Algorithm: subiso.VF2{},
		Cache:     &cache.Config{Capacity: 30, WindowSize: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rc.SubgraphQueryCtx(ctx, q, QueryOptions{Limit: 5}); err != nil {
		t.Fatal(err)
	}
	if n := rc.cache.Size() + rc.cache.WindowLen(); n != 0 {
		t.Fatalf("truncated answer admitted: %d cache/window entries", n)
	}
	if _, err := rc.SubgraphQuery(q); err != nil {
		t.Fatal(err)
	}
	if n := rc.cache.Size() + rc.cache.WindowLen(); n == 0 {
		t.Fatal("exact query not admitted")
	}
	res, err = rc.SubgraphQueryCtx(ctx, q.Clone(), QueryOptions{Limit: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.ExactHit {
		t.Fatal("iso repeat with Limit did not take the exact-hit shortcut")
	}
	if got := res.AnswerIDs(); len(got) != 3 || got[0] != fullIDs[0] || got[2] != fullIDs[2] {
		t.Fatalf("iso-hit Limit=3 ids = %v, want %v", got, fullIDs[:3])
	}
	if !res.Stats.Truncated {
		t.Fatal("iso-hit clipped answer: Truncated not set")
	}
}

// TestPlannerStreamingEquivalence cross-checks the default Method M
// (VF2+) and the streaming path against a runtime pinned to VF2 and the
// brute-force ground truth on a randomized repeat-heavy workload: same
// answers, in every combination.
func TestPlannerStreamingEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	pool := make([]*graph.Graph, 80)
	for i := range pool {
		pool[i] = testutil.RandomConnectedGraph(rng, 6+rng.Intn(16), 4, 0.12)
	}
	cfg := func() *cache.Config { return &cache.Config{Capacity: 30, WindowSize: 5} }
	newRT := func(o Options) *Runtime {
		t.Helper()
		r, err := NewRuntime(dataset.New(pool), o)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	pinned := newRT(Options{Algorithm: subiso.VF2{}, Cache: cfg()})
	unpinned := newRT(Options{Cache: cfg()})
	ctx := context.Background()
	var issued []*graph.Graph
	for step := 0; step < 60; step++ {
		var q *graph.Graph
		if len(issued) > 0 && rng.Float64() < 0.4 {
			// Repeat an earlier query as a fresh clone — the Zipf-repeat
			// shape the plan cache exists for.
			q = issued[rng.Intn(len(issued))].Clone()
		} else {
			src := pool[rng.Intn(len(pool))]
			q = testutil.BFSExtract(rng, src, rng.Intn(src.NumVertices()), 2+rng.Intn(6))
		}
		issued = append(issued, q)
		kind := cache.KindSub
		if step%3 == 0 {
			kind = cache.KindSuper
		}
		run := func(r *Runtime, opt QueryOptions) *Result {
			t.Helper()
			var res *Result
			var err error
			if kind == cache.KindSub {
				res, err = r.SubgraphQueryCtx(ctx, q, opt)
			} else {
				res, err = r.SupergraphQueryCtx(ctx, q, opt)
			}
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		want := run(pinned, QueryOptions{})
		truth := testutil.GroundTruthSub(pinned.ds, q)
		if kind == cache.KindSuper {
			truth = testutil.GroundTruthSuper(pinned.ds, q)
		}
		if !want.Answer.Equal(truth) {
			t.Fatalf("step %d: pinned answer %v != ground truth %v", step, want.AnswerIDs(), truth.Indices())
		}
		if got := run(unpinned, QueryOptions{}); !got.Answer.Equal(truth) {
			t.Fatalf("step %d: unpinned (%s) answer %v != ground truth %v",
				step, got.Stats.PlanAlgorithm, got.AnswerIDs(), truth.Indices())
		}
		// Streaming with a generous limit must reproduce the full answer
		// on a *fresh* runtime (streaming against warm runtimes is pinned
		// by the oracle; here the point is the stream/exact equivalence).
		if step%10 == 0 {
			fresh := newRT(Options{})
			if got := run(fresh, QueryOptions{Limit: len(pool) + 1}); !got.Answer.Equal(truth) {
				t.Fatalf("step %d: streamed answer %v != ground truth %v", step, got.AnswerIDs(), truth.Indices())
			}
		}
	}
	for _, r := range []*Runtime{pinned, unpinned} {
		if r.Metrics().PlanCacheHits == 0 {
			t.Fatalf("%s: randomized repeat workload produced zero plan-cache hits", r)
		}
	}
}
