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

// newParallelFixture builds two runtimes over independent but identical
// datasets: one verifying sequentially (the ground truth) and one with an
// intra-query worker pool. Caching is disabled on both so every query
// verifies the full candidate set — the parallel loop gets no chance to
// hide behind pruning.
func newParallelFixture(t *testing.T, seed int64, n, workers int, method string) (seqRT, parRT *Runtime, pool []*graph.Graph) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	pool = make([]*graph.Graph, n)
	for i := range pool {
		pool[i] = testutil.RandomConnectedGraph(rng, 6+rng.Intn(20), 4, 0.12)
	}
	algo, err := subiso.New(method)
	if err != nil {
		t.Fatal(err)
	}
	seqRT, err = NewRuntime(dataset.New(pool), Options{Algorithm: algo, VerifyParallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	parRT, err = NewRuntime(dataset.New(pool), Options{Algorithm: algo, VerifyParallelism: workers})
	if err != nil {
		t.Fatal(err)
	}
	return seqRT, parRT, pool
}

// TestParallelVerifyMatchesSequential is the randomized -race stress test
// of the tentpole's acceptance bar: parallel verification must produce
// bit-identical answers to the single-threaded path, for sub and super
// queries, across methods, while the dataset evolves between queries.
func TestParallelVerifyMatchesSequential(t *testing.T) {
	for _, method := range []string{"VF2", "VF2+", "GQL"} {
		t.Run(method, func(t *testing.T) {
			seqRT, parRT, pool := newParallelFixture(t, 71, 120, 8, method)
			rng := rand.New(rand.NewSource(72))
			for step := 0; step < 60; step++ {
				// Mutate both datasets identically every few steps.
				if step%5 == 4 {
					switch rng.Intn(3) {
					case 0:
						g := testutil.RandomConnectedGraph(rng, 6+rng.Intn(12), 4, 0.12)
						if _, err := seqRT.Dataset().Add(g); err != nil {
							t.Fatal(err)
						}
						if _, err := parRT.Dataset().Add(g.Clone()); err != nil {
							t.Fatal(err)
						}
					case 1:
						id := rng.Intn(seqRT.Dataset().MaxID() + 1)
						errA := seqRT.Dataset().Delete(id)
						errB := parRT.Dataset().Delete(id)
						if (errA == nil) != (errB == nil) {
							t.Fatalf("DEL divergence on id %d: %v vs %v", id, errA, errB)
						}
					default:
						id := rng.Intn(seqRT.Dataset().MaxID() + 1)
						g := seqRT.Dataset().Graph(id)
						if g != nil && g.NumVertices() > 2 {
							u, v := rng.Intn(g.NumVertices()), rng.Intn(g.NumVertices())
							errA := seqRT.Dataset().UpdateAddEdge(id, u, v)
							errB := parRT.Dataset().UpdateAddEdge(id, u, v)
							if (errA == nil) != (errB == nil) {
								t.Fatalf("UA divergence on id %d: %v vs %v", id, errA, errB)
							}
						}
					}
				}
				src := pool[rng.Intn(len(pool))]
				q := testutil.BFSExtract(rng, src, rng.Intn(src.NumVertices()), 2+rng.Intn(8))
				var seqRes, parRes *Result
				var err error
				if step%3 == 0 {
					seqRes, err = seqRT.SupergraphQuery(q)
					if err != nil {
						t.Fatal(err)
					}
					parRes, err = parRT.SupergraphQuery(q)
				} else {
					seqRes, err = seqRT.SubgraphQuery(q)
					if err != nil {
						t.Fatal(err)
					}
					parRes, err = parRT.SubgraphQuery(q)
				}
				if err != nil {
					t.Fatal(err)
				}
				if !seqRes.Answer.Equal(parRes.Answer) {
					t.Fatalf("step %d: parallel answer %v != sequential %v",
						step, parRes.AnswerIDs(), seqRes.AnswerIDs())
				}
				if seqRes.Stats.SubIsoTests != parRes.Stats.SubIsoTests {
					t.Fatalf("step %d: test counts diverge: %d vs %d",
						step, seqRes.Stats.SubIsoTests, parRes.Stats.SubIsoTests)
				}
				// Each test's search is deterministic, so the workers'
				// summed states equal the sequential loop's.
				if seqRes.Stats.SearchStates != parRes.Stats.SearchStates {
					t.Fatalf("step %d: search states diverge: %d vs %d",
						step, seqRes.Stats.SearchStates, parRes.Stats.SearchStates)
				}
				if seqRes.Answer.Any() && seqRes.Stats.SearchStates == 0 {
					t.Fatalf("step %d: %d answers found in 0 search states", step, seqRes.Answer.Count())
				}
				if parRes.Stats.SubIsoTests > 0 && parRes.Stats.VerifyWorkers < 1 {
					t.Fatalf("step %d: VerifyWorkers = %d with %d tests",
						step, parRes.Stats.VerifyWorkers, parRes.Stats.SubIsoTests)
				}
			}
		})
	}
}

// TestParallelVerifyWithCache runs the cached GC+ pipeline with parallel
// verification against the cached sequential pipeline: pruning decisions
// depend on prior answers, so agreement here shows the parallel loop
// composes with the consistency machinery, not just the baseline.
func TestParallelVerifyWithCache(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	pool := make([]*graph.Graph, 80)
	for i := range pool {
		pool[i] = testutil.RandomConnectedGraph(rng, 5+rng.Intn(10), 3, 0.15)
	}
	cfg := &cache.Config{Capacity: 8, WindowSize: 3}
	seqRT, err := NewRuntime(dataset.New(pool), Options{Algorithm: subiso.VF2{}, Cache: cfg, VerifyParallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	parRT, err := NewRuntime(dataset.New(pool), Options{Algorithm: subiso.VF2{}, Cache: cfg, VerifyParallelism: 6})
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 80; step++ {
		src := pool[rng.Intn(len(pool))]
		q := testutil.BFSExtract(rng, src, rng.Intn(src.NumVertices()), 2+rng.Intn(6))
		a, err := seqRT.SubgraphQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		b, err := parRT.SubgraphQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		if !a.Answer.Equal(b.Answer) {
			t.Fatalf("step %d: cached parallel answer diverges", step)
		}
	}
}
