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

// TestRestartFromDatasetSnapshot is the core-level restart contract: the
// cache is soft state, so a restart keeps only the dataset. A runtime is
// warmed with queries and churn; a second runtime is built over
// dataset.Restore of its export, with an empty cache. From then on,
// under a randomized query stream with the same churn applied to both
// datasets and partial repair drains, the two must answer every query
// identically. Only answers are compared: the restarted cache has yet to
// re-warm, so its hit and test counts differ by design.
func TestRestartFromDatasetSnapshot(t *testing.T) {
	t.Run("pinned", func(t *testing.T) { restartFromDatasetSnapshot(t, subiso.VF2{}) })
	t.Run("unpinned", func(t *testing.T) { restartFromDatasetSnapshot(t, nil) })
}

func restartFromDatasetSnapshot(t *testing.T, method subiso.Algorithm) {
	for _, model := range []cache.Model{cache.ModelCON, cache.ModelEVI} {
		newRT := func(ds *dataset.Dataset) *Runtime {
			t.Helper()
			r, err := NewRuntime(ds, Options{
				Algorithm: method,
				Cache:     &cache.Config{Capacity: 8, WindowSize: 3, Model: model},
			})
			if err != nil {
				t.Fatal(err)
			}
			return r
		}
		for _, seed := range []int64{1, 2, 3} {
			rng := rand.New(rand.NewSource(seed))
			ds, pool := newTestDataset(rng, 24)
			rt := newRT(ds)

			queries := make([]*graph.Graph, 14)
			for i := range queries {
				queries[i] = testutil.RandomConnectedGraph(rng, 2+rng.Intn(4), 3, 0.3)
			}
			churn := func(d *dataset.Dataset, r *rand.Rand) {
				for k := 0; k < 3; k++ {
					ids := d.LiveIDs()
					id := ids[r.Intn(len(ids))]
					g := d.Graph(id)
					switch {
					case r.Intn(2) == 0 && g.NumEdges() > 0:
						e := g.EdgeList()[r.Intn(g.NumEdges())]
						_ = d.UpdateRemoveEdge(id, int(e.U), int(e.V))
					case g.NumVertices() >= 2:
						u, v := r.Intn(g.NumVertices()), r.Intn(g.NumVertices())
						if u != v && !g.HasEdge(u, v) {
							_ = d.UpdateAddEdge(id, u, v)
						}
					}
				}
			}
			run := func(r *Runtime, q *graph.Graph, super bool) *Result {
				t.Helper()
				var res *Result
				var err error
				if super {
					res, err = r.SupergraphQuery(q)
				} else {
					res, err = r.SubgraphQuery(q)
				}
				if err != nil {
					t.Fatal(err)
				}
				return res
			}

			// Warm up with queries and churn, ending with unreconciled
			// records in the log: the restart must not need them.
			for i, q := range queries {
				run(rt, q, i%2 == 1)
				if i%4 == 3 {
					churn(ds, rng)
				}
			}
			churn(ds, rng)

			ds2 := dataset.Restore(ds.Export())
			rt2 := newRT(ds2)
			if n := rt2.CacheSize() + rt2.CacheStats().Window; n != 0 {
				t.Fatalf("restarted runtime starts with %d cache entries", n)
			}

			rngA, rngB := rand.New(rand.NewSource(seed+100)), rand.New(rand.NewSource(seed+100))
			step := rand.New(rand.NewSource(seed + 7))
			for i := 0; i < 40; i++ {
				var q *graph.Graph
				switch step.Intn(3) {
				case 0:
					q = queries[step.Intn(len(queries))]
				case 1:
					q = testutil.RandomConnectedGraph(step, 2+step.Intn(4), 3, 0.3)
				default:
					q = pool[step.Intn(len(pool))]
				}
				super := step.Intn(2) == 1
				ra, rb := run(rt, q, super), run(rt2, q, super)
				if !ra.Answer.Equal(rb.Answer) {
					t.Fatalf("%v, seed %d, step %d: answers diverge: %v vs %v",
						model, seed, i, ra.AnswerIDs(), rb.AnswerIDs())
				}
				if i%5 == 4 {
					churn(ds, rngA)
					churn(ds2, rngB)
				}
				if i%7 == 6 {
					rt.Repair(16, 1)
					rt2.Repair(16, 1)
				}
				if i%10 == 9 {
					testutil.RequireCacheIndex(t, rt2.Cache())
				}
			}
		}
	}
}
