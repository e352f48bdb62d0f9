package core

import (
	"math/rand"
	"testing"

	"gcplus/internal/cache"
	"gcplus/internal/dataset"
	"gcplus/internal/graph"
	"gcplus/internal/subiso"
	"gcplus/internal/testutil"
)

func newTestDataset(rng *rand.Rand, n int) (*dataset.Dataset, []*graph.Graph) {
	pool := make([]*graph.Graph, n)
	for i := range pool {
		pool[i] = testutil.RandomConnectedGraph(rng, 4+rng.Intn(8), 3, 0.15)
	}
	return dataset.New(pool), pool
}

func cachedRuntime(t *testing.T, ds *dataset.Dataset, model cache.Model, policy cache.Policy) *Runtime {
	t.Helper()
	r, err := NewRuntime(ds, Options{
		Algorithm: subiso.VF2{},
		Cache: &cache.Config{
			Capacity:   8,
			WindowSize: 3,
			Model:      model,
			Policy:     policy,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestNewRuntimeValidation(t *testing.T) {
	ds, _ := newTestDataset(rand.New(rand.NewSource(1)), 3)
	if _, err := NewRuntime(nil, Options{Algorithm: subiso.VF2{}}); err == nil {
		t.Error("nil dataset accepted")
	}
	unpinned, err := NewRuntime(ds, Options{})
	if err != nil {
		t.Fatalf("nil algorithm (default VF2+) rejected: %v", err)
	}
	if got := unpinned.String(); got != "Runtime(M=VF2+ no-cache)" {
		t.Errorf("unpinned String() = %q", got)
	}
	r, err := NewRuntime(ds, Options{Algorithm: subiso.VF2{}})
	if err != nil {
		t.Fatal(err)
	}
	if r.CacheEnabled() {
		t.Error("cache should be disabled without config")
	}
	if _, err := r.SubgraphQuery(nil); err == nil {
		t.Error("nil query accepted")
	}
	if got := r.String(); got != "Runtime(M=VF2 no-cache)" {
		t.Errorf("pinned String() = %q", got)
	}
	if r.Dataset() != ds {
		t.Error("Dataset accessor wrong")
	}
}

func TestBaselineMatchesGroundTruth(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	ds, _ := newTestDataset(rng, 12)
	r, err := NewRuntime(ds, Options{Algorithm: subiso.VF2Plus{}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		ids := ds.LiveIDs()
		src := ds.Graph(ids[rng.Intn(len(ids))])
		q := testutil.BFSExtract(rng, src, rng.Intn(src.NumVertices()), 1+rng.Intn(5))
		res, err := r.SubgraphQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		want := testutil.GroundTruthSub(ds, q)
		if !res.Answer.Equal(want) {
			t.Fatalf("baseline answer %v, want %v", res.Answer, want)
		}
		if res.Stats.SubIsoTests != ds.LiveCount() {
			t.Fatalf("baseline must test every live graph: %d vs %d",
				res.Stats.SubIsoTests, ds.LiveCount())
		}
		if res.Stats.Overhead != 0 {
			t.Fatal("baseline must have zero cache overhead")
		}
	}
}

// runScenario drives a randomized interleaving of queries and dataset
// changes through a cached runtime, checking every answer against ground
// truth. It is the executable form of Theorems 3 and 6.
func runScenario(t *testing.T, seed int64, model cache.Model, policy cache.Policy, steps int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ds, pool := newTestDataset(rng, 10)
	r := cachedRuntime(t, ds, model, policy)

	for step := 0; step < steps; step++ {
		// Interleave changes between queries.
		if rng.Float64() < 0.3 {
			nOps := 1 + rng.Intn(3)
			for i := 0; i < nOps; i++ {
				testutil.RandomChange(rng, ds, pool)
			}
		}
		// Build a query: usually extracted from a live graph (non-empty
		// answers, cache-hit friendly), sometimes fully random.
		var q *graph.Graph
		ids := ds.LiveIDs()
		if len(ids) == 0 {
			t.Fatal("dataset drained")
		}
		if rng.Float64() < 0.8 {
			src := ds.Graph(ids[rng.Intn(len(ids))])
			q = testutil.BFSExtract(rng, src, rng.Intn(src.NumVertices()), 1+rng.Intn(6))
		} else {
			q = testutil.RandomGraph(rng, 6, 3, 0.4)
		}

		kindSub := rng.Float64() < 0.7
		var (
			res *Result
			err error
		)
		if kindSub {
			res, err = r.SubgraphQuery(q)
		} else {
			res, err = r.SupergraphQuery(q)
		}
		if err != nil {
			t.Fatal(err)
		}
		var want = testutil.GroundTruthSub(ds, q)
		if !kindSub {
			want = testutil.GroundTruthSuper(ds, q)
		}
		if !res.Answer.Equal(want) {
			t.Fatalf("step %d (%s %v): answer %v, want %v (tests=%d/%d hits=%d/%d exact=%v empty=%v)",
				step, model, kindSub, res.Answer, want,
				res.Stats.SubIsoTests, res.Stats.CandidatesBefore,
				res.Stats.ContainingHits, res.Stats.ContainedHits,
				res.Stats.ExactHit, res.Stats.EmptyShortcut)
		}
		if res.Stats.SubIsoTests+res.Stats.TestsSaved != res.Stats.CandidatesBefore {
			t.Fatalf("step %d: test accounting broken: %d+%d != %d", step,
				res.Stats.SubIsoTests, res.Stats.TestsSaved, res.Stats.CandidatesBefore)
		}
		// Invariant: after a query, every entry's validity indicator is
		// confined to live ids.
		live := ds.LiveSnapshot()
		r.cache.ForEach(func(e *cache.Entry) bool {
			if !e.Valid.IsSubsetOf(live) {
				t.Fatalf("step %d: entry %v claims validity outside live set", step, e)
			}
			return true
		})
	}
}

func TestTheoremsCONAgainstGroundTruth(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		runScenario(t, seed, cache.ModelCON, cache.PolicyHD, 60)
	}
}

func TestTheoremsEVIAgainstGroundTruth(t *testing.T) {
	for seed := int64(100); seed < 106; seed++ {
		runScenario(t, seed, cache.ModelEVI, cache.PolicyHD, 60)
	}
}

func TestTheoremsAcrossPolicies(t *testing.T) {
	for _, p := range []cache.Policy{cache.PolicyPIN, cache.PolicyPINC, cache.PolicyLRU, cache.PolicyLFU} {
		runScenario(t, 7, cache.ModelCON, p, 50)
	}
}

func TestExactMatchOptimalCase(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ds, _ := newTestDataset(rng, 8)
	r := cachedRuntime(t, ds, cache.ModelCON, cache.PolicyHD)
	src := ds.Graph(0)
	q := testutil.BFSExtract(rng, src, 0, 4)

	res1, err := r.SubgraphQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	if res1.Stats.ExactHit {
		t.Fatal("first execution cannot be an exact hit")
	}
	// identical re-submission: must return the cached answer with zero
	// sub-iso tests.
	res2, err := r.SubgraphQuery(q.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Stats.ExactHit {
		t.Fatal("re-submitted query should be an exact hit")
	}
	if res2.Stats.SubIsoTests != 0 {
		t.Fatalf("exact hit ran %d sub-iso tests", res2.Stats.SubIsoTests)
	}
	if !res2.Answer.Equal(res1.Answer) {
		t.Fatal("exact hit returned different answer")
	}

	// After a dataset change that invalidates some bit, the exact path
	// must not fire (entry no longer fully valid)...
	live := ds.LiveIDs()
	victim := live[0]
	g := ds.Graph(victim)
	es := g.EdgeList()
	if err := ds.UpdateRemoveEdge(victim, int(es[0].U), int(es[0].V)); err != nil {
		t.Fatal(err)
	}
	res3, err := r.SubgraphQuery(q.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if res3.Stats.ExactHit {
		t.Fatal("exact hit fired on a partially invalid entry")
	}
	if !res3.Answer.Equal(testutil.GroundTruthSub(ds, q)) {
		t.Fatal("post-change answer wrong")
	}
}

func TestExactHitStillFiresAfterUAOnPositive(t *testing.T) {
	// UA-exclusive changes on graphs with positive cached answers keep
	// the entry fully valid, so the exact-match case keeps firing.
	rng := rand.New(rand.NewSource(21))
	ds, _ := newTestDataset(rng, 6)
	r := cachedRuntime(t, ds, cache.ModelCON, cache.PolicyHD)
	src := ds.Graph(2)
	q := testutil.BFSExtract(rng, src, 0, 3)
	res1, err := r.SubgraphQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	// find a positive answer graph and add an absent edge to it
	pos := res1.Answer.Indices()
	if len(pos) == 0 {
		t.Skip("no positive answers in this draw")
	}
	target := pos[0]
	g := ds.Graph(target)
	added := false
	for u := 0; u < g.NumVertices() && !added; u++ {
		for v := u + 1; v < g.NumVertices() && !added; v++ {
			if !g.HasEdge(u, v) {
				if err := ds.UpdateAddEdge(target, u, v); err != nil {
					t.Fatal(err)
				}
				added = true
			}
		}
	}
	if !added {
		t.Skip("target graph is complete")
	}
	res2, err := r.SubgraphQuery(q.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Stats.ExactHit {
		t.Fatal("UA on a positive answer should preserve full validity")
	}
	if !res2.Answer.Equal(testutil.GroundTruthSub(ds, q)) {
		t.Fatal("answer drifted")
	}
}

func TestEmptyShortcutOptimalCase(t *testing.T) {
	// Dataset of small paths with labels {0,1}; query with label 9 has a
	// guaranteed-empty answer. A follow-up query containing the first one
	// must short-circuit to ∅ without tests.
	ds := dataset.New([]*graph.Graph{
		graph.Path(0, 1, 0), graph.Path(1, 1), graph.Cycle(0, 1, 0),
	})
	r, err := NewRuntime(ds, Options{
		Algorithm: subiso.VF2{},
		Cache:     &cache.Config{Capacity: 8, WindowSize: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	small := graph.Path(9, 9)
	res1, err := r.SubgraphQuery(small)
	if err != nil {
		t.Fatal(err)
	}
	if res1.Answer.Any() {
		t.Fatal("label-9 query should have empty answer")
	}
	big := graph.Path(9, 9, 9) // contains small
	res2, err := r.SubgraphQuery(big)
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Stats.EmptyShortcut {
		t.Fatal("empty-answer shortcut did not fire")
	}
	if res2.Stats.SubIsoTests != 0 || res2.Answer.Any() {
		t.Fatal("shortcut must return empty answer with zero tests")
	}

	// After an edge addition (UA) anywhere, negatives stay valid only if
	// the ops were UR-exclusive — a UA must disable the shortcut.
	if err := ds.UpdateAddEdge(1, 0, 1); err == nil {
		t.Fatal("expected duplicate-edge error") // path(1,1) already has 0-1
	}
	if err := ds.UpdateRemoveEdge(0, 0, 1); err != nil {
		t.Fatal(err)
	}
	// UR-exclusive: negatives survive; shortcut still fires.
	res3, err := r.SubgraphQuery(graph.Path(9, 9, 9, 9))
	if err != nil {
		t.Fatal(err)
	}
	if !res3.Stats.EmptyShortcut {
		t.Fatal("UR-exclusive change should preserve the shortcut")
	}
}

func TestDirectHitPrunesTests(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	ds, _ := newTestDataset(rng, 10)
	r := cachedRuntime(t, ds, cache.ModelCON, cache.PolicyHD)
	src := ds.Graph(3)
	big := testutil.BFSExtract(rng, src, 0, 6)
	if _, err := r.SubgraphQuery(big); err != nil {
		t.Fatal(err)
	}
	// a subgraph of the cached query: its valid positives come for free
	small := testutil.BFSExtract(rng, big, 0, 3)
	res, err := r.SubgraphQuery(small)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.ContainingHits == 0 {
		t.Fatal("expected a containing hit")
	}
	want := testutil.GroundTruthSub(ds, small)
	if !res.Answer.Equal(want) {
		t.Fatalf("answer %v, want %v", res.Answer, want)
	}
}

func TestSupergraphQueryUsesCache(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	ds, _ := newTestDataset(rng, 8)
	r := cachedRuntime(t, ds, cache.ModelCON, cache.PolicyHD)
	// supergraph query: big query graph, dataset graphs inside it
	big := testutil.RandomConnectedGraph(rng, 14, 3, 0.25)
	res1, err := r.SupergraphQuery(big)
	if err != nil {
		t.Fatal(err)
	}
	if !res1.Answer.Equal(testutil.GroundTruthSuper(ds, big)) {
		t.Fatal("supergraph answer wrong")
	}
	// re-submission → exact hit
	res2, err := r.SupergraphQuery(big.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Stats.ExactHit || res2.Stats.SubIsoTests != 0 {
		t.Fatalf("supergraph exact hit failed: %+v", res2.Stats)
	}
}

func TestKindsDoNotCrossContaminate(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	ds, _ := newTestDataset(rng, 8)
	r := cachedRuntime(t, ds, cache.ModelCON, cache.PolicyHD)
	q := testutil.BFSExtract(rng, ds.Graph(0), 0, 4)
	if _, err := r.SubgraphQuery(q); err != nil {
		t.Fatal(err)
	}
	// same graph as a supergraph query must not be answered by the
	// sub-kind entry's bits
	res, err := r.SupergraphQuery(q.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.ExactHit {
		t.Fatal("exact hit across kinds")
	}
	if !res.Answer.Equal(testutil.GroundTruthSuper(ds, q)) {
		t.Fatal("cross-kind contamination produced a wrong answer")
	}
}

// TestMethodIndependence verifies the paper's §7.2 claim: under a fixed
// configuration, the pruned candidate set per query is identical whatever
// SI method is plugged in as Method M.
func TestMethodIndependence(t *testing.T) {
	type trace struct {
		tests []int
	}
	run := func(algo subiso.Algorithm) trace {
		rng := rand.New(rand.NewSource(77)) // same seed → same workload
		ds, pool := newTestDataset(rng, 10)
		r, err := NewRuntime(ds, Options{
			Algorithm: algo,
			Cache: &cache.Config{
				Capacity: 8, WindowSize: 3,
				Model:  cache.ModelCON,
				Policy: cache.PolicyPIN, // time-independent scoring
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		var tr trace
		for step := 0; step < 50; step++ {
			if rng.Float64() < 0.3 {
				testutil.RandomChange(rng, ds, pool)
			}
			ids := ds.LiveIDs()
			src := ds.Graph(ids[rng.Intn(len(ids))])
			q := testutil.BFSExtract(rng, src, rng.Intn(src.NumVertices()), 1+rng.Intn(5))
			res, err := r.SubgraphQuery(q)
			if err != nil {
				t.Fatal(err)
			}
			tr.tests = append(tr.tests, res.Stats.SubIsoTests)
		}
		return tr
	}
	base := run(subiso.VF2{})
	for _, algo := range []subiso.Algorithm{subiso.VF2Plus{}, subiso.GraphQL{}} {
		got := run(algo)
		for i := range base.tests {
			if got.tests[i] != base.tests[i] {
				t.Fatalf("%s: query %d tested %d candidates, VF2 tested %d",
					algo.Name(), i, got.tests[i], base.tests[i])
			}
		}
	}
}

func TestMetricsAggregation(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	ds, _ := newTestDataset(rng, 6)
	r := cachedRuntime(t, ds, cache.ModelCON, cache.PolicyHD)
	q := testutil.BFSExtract(rng, ds.Graph(0), 0, 3)
	if _, err := r.SubgraphQuery(q); err != nil {
		t.Fatal(err)
	}
	if _, err := r.SubgraphQuery(q.Clone()); err != nil {
		t.Fatal(err)
	}
	m := r.Metrics()
	if m.Queries != 2 || m.MeasuredQueries != 2 {
		t.Fatalf("Queries = %d", m.Queries)
	}
	if m.ExactHits != 1 || m.ZeroTestQueries != 1 {
		t.Fatalf("ExactHits=%d ZeroTest=%d", m.ExactHits, m.ZeroTestQueries)
	}
	if m.SubIsoTests.Sum() != float64(ds.LiveCount()) {
		t.Fatalf("test sum = %g", m.SubIsoTests.Sum())
	}
	r.ResetMeasurements()
	m = r.Metrics()
	if m.MeasuredQueries != 0 || m.Queries != 2 {
		t.Fatalf("reset wrong: %+v", m)
	}
	if r.CacheSize() < 0 {
		t.Fatal("CacheSize broken")
	}
	if r.String() == "" {
		t.Fatal("String empty")
	}
}

func TestEVIPurgesOnChange(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	ds, pool := newTestDataset(rng, 8)
	r := cachedRuntime(t, ds, cache.ModelEVI, cache.PolicyHD)
	q := testutil.BFSExtract(rng, ds.Graph(0), 0, 3)
	if _, err := r.SubgraphQuery(q); err != nil {
		t.Fatal(err)
	}
	if r.cache.WindowLen()+r.cache.Size() == 0 {
		t.Fatal("entry not cached")
	}
	testutil.RandomChange(rng, ds, pool)
	res, err := r.SubgraphQuery(q.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.ExactHit {
		t.Fatal("EVI must not hit after a change")
	}
	// the purge happened during this query; only the new entry remains
	if got := r.cache.WindowLen() + r.cache.Size(); got != 1 {
		t.Fatalf("cache holds %d entries after purge, want 1", got)
	}
}

// Repair drains the pending repair queue through plan → verify → commit
// until it is empty, processing at most batch pairs per round (0 means
// a sensible default) with the given verification parallelism. It is
// the synchronous, owner-context form of the pipeline, used by
// single-threaded runtimes (and the differential oracle tests); serving
// shards run the three phases themselves so verification leaves the
// owner goroutine. Returns the total number of bits restored.
func (r *Runtime) Repair(batch, parallelism int) int {
	if batch <= 0 {
		batch = DefaultRepairBatch
	}
	total := 0
	for {
		jobs := r.PlanRepairs(batch)
		if len(jobs) == 0 {
			return total
		}
		total += r.CommitRepairs(r.VerifyRepairs(jobs, parallelism))
	}
}
