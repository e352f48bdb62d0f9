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

// TestRuntimeStateRoundTrip is the core-level warm-restart differential:
// a runtime is warmed with queries and churn, its state exported and
// restored into a fresh runtime over a restored dataset, and from then
// on the two runtimes must behave *identically* — same answers, same
// hit classifications, same per-query statistics — under a further
// randomized query/update interleaving. Passing it means the snapshot
// captures everything query processing observes.
//
// The PIN policy keeps the comparison exact: it scores evictions purely
// by the (deterministic) R statistic. HD/PINC score by the *measured*
// per-test CPU cost, so even two cold runtimes fed the identical stream
// can evict different entries — a timing artifact, not a restore
// defect, and exactly why the policy bookkeeping (R, hits, recency) is
// persisted while measured timings are allowed to re-learn.
//
// Plans are re-compiled too: a restored runtime starts with a cold plan
// cache, so PlanCached is excluded from the comparison, and every other
// non-time field must agree. Method M is a constant of the runtime, so
// this holds unpinned (VF2+) exactly as it does pinned.
func TestRuntimeStateRoundTrip(t *testing.T) {
	t.Run("pinned", func(t *testing.T) { runtimeStateRoundTrip(t, subiso.VF2{}) })
	t.Run("unpinned", func(t *testing.T) { runtimeStateRoundTrip(t, nil) })
}

func runtimeStateRoundTrip(t *testing.T, method subiso.Algorithm) {
	newRT := func(ds *dataset.Dataset) *Runtime {
		t.Helper()
		r, err := NewRuntime(ds, Options{
			Algorithm: method,
			Cache:     &cache.Config{Capacity: 8, WindowSize: 3, Model: cache.ModelCON, Policy: cache.PolicyPIN},
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

		// Warm up with queries and churn; leave some pairs pending in
		// the repair queue so that state is exercised too.
		for i, q := range queries {
			if i%2 == 0 {
				if _, err := rt.SubgraphQuery(q); err != nil {
					t.Fatal(err)
				}
			} else {
				if _, err := rt.SupergraphQuery(q); err != nil {
					t.Fatal(err)
				}
			}
			if i%4 == 3 {
				churn(ds, rng)
			}
		}
		rt.Sync()

		st := rt.ExportState()
		ds2 := dataset.Restore(ds.Export())
		rt2 := newRT(ds2)
		if err := rt2.RestoreState(st); err != nil {
			t.Fatal(err)
		}
		testutil.RequireCacheIndex(t, rt2.Cache())

		// Identical evolution from the restore point on: interleave
		// queries (old, new and repeated), churn applied to *both*
		// datasets, and partial repair drains.
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
			kind := step.Intn(2)
			run := func(r *Runtime) *Result {
				var res *Result
				var err error
				if kind == 0 {
					res, err = r.SubgraphQuery(q)
				} else {
					res, err = r.SupergraphQuery(q)
				}
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			ra, rb := run(rt), run(rt2)
			if !ra.Answer.Equal(rb.Answer) {
				t.Fatalf("seed %d, step %d: answers diverge: %v vs %v",
					seed, i, ra.AnswerIDs(), rb.AnswerIDs())
			}
			sa, sb := ra.Stats, rb.Stats
			sa.QueryTime, sb.QueryTime = 0, 0
			sa.VerifyTime, sb.VerifyTime = 0, 0
			sa.VerifyCPUTime, sb.VerifyCPUTime = 0, 0
			sa.HitTime, sb.HitTime = 0, 0
			sa.Overhead, sb.Overhead = 0, 0
			sa.ConsistencyTime, sb.ConsistencyTime = 0, 0
			sa.PlanTime, sb.PlanTime = 0, 0
			sa.PlanCached, sb.PlanCached = false, false
			if sa != sb {
				t.Fatalf("seed %d, step %d: stats diverge:\n a: %+v\n b: %+v", seed, i, sa, sb)
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

// TestRestoreStateRejects pins the guard rails.
func TestRestoreStateRejects(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	ds, _ := newTestDataset(rng, 6)
	rt := cachedRuntime(t, ds, cache.ModelCON, cache.PolicyHD)
	if err := rt.RestoreState(nil); err == nil {
		t.Fatal("nil state accepted")
	}
	if err := rt.RestoreState(&RuntimeState{}); err == nil {
		t.Fatal("cache-less state accepted by a cached runtime")
	}
	// A snapshot ahead of the dataset log cannot be reconciled.
	ahead := rt.ExportState()
	ahead.Cache.AppliedSeq = ds.Seq() + 5
	rt2 := cachedRuntime(t, ds, cache.ModelCON, cache.PolicyHD)
	if err := rt2.RestoreState(ahead); err == nil {
		t.Fatal("snapshot ahead of the log accepted")
	}
	// Cache-less runtimes restore cache-less state.
	plain, err := NewRuntime(ds, Options{Algorithm: subiso.VF2{}})
	if err != nil {
		t.Fatal(err)
	}
	if err := plain.RestoreState(&RuntimeState{}); err != nil {
		t.Fatal(err)
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
