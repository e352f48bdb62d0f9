package core

// Differential tests pinning hit discovery to its reference: the
// fingerprint-screened findHits, with its relation replay and verdict
// memo, must classify every cache entry (direct / restrict / iso)
// exactly as the prefilter-free reference findHitsScan below, in the
// same order, under randomized workloads with evictions, purges,
// refreshes and background repair churning the cache. The same loop
// also pins the marginal R-crediting property: per query, the total
// credit handed to cache entries never exceeds the number of candidates
// Method M would have tested.

import (
	"fmt"
	"math/rand"
	"testing"

	"gcplus/internal/cache"
	"gcplus/internal/dataset"
	"gcplus/internal/graph"
	"gcplus/internal/subiso"
	"gcplus/internal/testutil"
)

// hitSystem builds a cached runtime over a random dataset for the
// differential properties.
func hitSystem(t testing.TB, rng *rand.Rand, n int, cfg cache.Config) (*Runtime, []*graph.Graph) {
	t.Helper()
	pool := make([]*graph.Graph, n)
	for i := range pool {
		pool[i] = testutil.RandomConnectedGraph(rng, 4+rng.Intn(8), 4, 0.2)
	}
	rt, err := NewRuntime(dataset.New(pool), Options{
		Algorithm: subiso.VF2{},
		Cache:     &cfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	return rt, pool
}

func hitQuery(rng *rand.Rand, ds *dataset.Dataset, history []*graph.Graph) *graph.Graph {
	if len(history) > 0 && rng.Float64() < 0.35 {
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

// findHitsScan is the reference for findHits: every same-kind window
// and cache entry gets both query-to-query tests, with no fingerprint
// prefilter, no isomorphism probe and no relation replay. Callers hand
// it a freshly compiled plan (planner.compile, empty verdict memo) so
// every verdict comes from a test, never from what findHits memoized.
func (r *Runtime) findHitsScan(pl *queryPlan, st *QueryStats) (direct, restrict []*cache.Entry, iso *cache.Entry) {
	h := newHitClassifier(pl, st)
	st.HitScanned = r.cache.Size() + r.cache.WindowLen()
	r.cache.ForEach(func(e *cache.Entry) bool {
		if e.Kind != pl.kind {
			return true
		}
		st.HitCandidates++
		h.visit(e, true, true)
		return true
	})
	return h.direct, h.restrict, h.iso
}

func sameEntries(a, b []*cache.Entry) bool {
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

// TestFindHitsMatchesScan drives a cached runtime through randomized
// queries, dataset changes, repair drains and purges, and at every step
// asserts that findHits and the prefilter-free reference return
// identical classifications — same direct and restrict slices (same
// entries, same order), same iso entry, same hit counters — that the
// prefilter passed no more entries than there are of the query's kind,
// and that a query with an isomorphic cached twin takes the replay
// path.
func TestFindHitsMatchesScan(t *testing.T) {
	for _, seed := range []int64{3, 11, 42} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(seed))
			rt, pool := hitSystem(t, rng, 24, cache.Config{
				Capacity:    20,
				WindowSize:  4,
				RepairQueue: 256,
			})
			var history []*graph.Graph
			for step := 0; step < 160; step++ {
				// Churn: dataset changes (invalidation), occasional
				// repair drains (bit restores), rare purges.
				if rng.Intn(3) == 0 {
					testutil.RandomChange(rng, rt.ds, pool)
				}
				if rng.Intn(5) == 0 {
					rt.Sync()
					rt.Repair(1+rng.Intn(8), 1)
				}
				if rng.Intn(40) == 0 {
					rt.cache.Purge()
				}
				testutil.RequireCacheIndex(t, rt.cache)

				q := hitQuery(rng, rt.ds, history)
				history = append(history, q)
				kind := cache.KindSub
				if rng.Intn(2) == 1 {
					kind = cache.KindSuper
				}

				// findHits runs under the plan a real query would get —
				// cached across repeats, verdict memo and all — the scan
				// under a fresh one, so the reference stays independent.
				var stScan, stHit QueryStats
				dScan, rScan, isoScan := rt.findHitsScan(rt.planner.compile(q, kind), &stScan)
				dHit, rHit, isoHit := rt.findHits(rt.planner.planFor(q, kind, &stHit), &stHit)
				if !sameEntries(dScan, dHit) {
					t.Fatalf("step %d: direct hits diverge: scan %v, findHits %v", step, dScan, dHit)
				}
				if !sameEntries(rScan, rHit) {
					t.Fatalf("step %d: restrict hits diverge: scan %v, findHits %v", step, rScan, rHit)
				}
				if isoScan != isoHit {
					t.Fatalf("step %d: iso diverges: scan %v, findHits %v", step, isoScan, isoHit)
				}
				if stScan.ContainingHits != stHit.ContainingHits ||
					stScan.ContainedHits != stHit.ContainedHits ||
					stScan.IsoHits != stHit.IsoHits {
					t.Fatalf("step %d: hit counters diverge: scan %+v, findHits %+v", step, stScan, stHit)
				}
				// The scan counts every same-kind entry.
				if stHit.HitCandidates > stScan.HitCandidates {
					t.Fatalf("step %d: %d prefilter passes among %d same-kind entries",
						step, stHit.HitCandidates, stScan.HitCandidates)
				}
				if isoScan != nil {
					requireReplay(t, rt, q, kind, step)
				}

				// Run the query for real so the cache keeps evolving
				// (admissions, evictions, refreshes), and pin the
				// marginal-credit property along the way.
				requireCreditsBounded(t, rt, q, kind)
			}
		})
	}
}

// requireReplay asserts that hit discovery for q, which has an
// isomorphic entry in the cache, takes the relation replay path: under
// a fresh plan, the only containment verdicts computed are the
// isomorphism probe's, on entries whose fingerprint equals q's.
func requireReplay(t *testing.T, rt *Runtime, q *graph.Graph, kind cache.Kind, step int) {
	t.Helper()
	pl := rt.planner.compile(q, kind)
	var st QueryStats
	if _, _, iso := rt.findHits(pl, &st); iso == nil {
		t.Fatalf("step %d: findHits missed the isomorphic entry", step)
	}
	rt.cache.ForEach(func(e *cache.Entry) bool {
		// The memo is keyed by query graph, which a sub and a super
		// entry may share, so only same-kind entries are attributable.
		if e.Kind != kind {
			return true
		}
		if _, tested := pl.memo[e.Query]; tested &&
			(!pl.qf.SameSize(e.Fp) || !pl.qf.SubsumedBy(e.Fp) || !e.Fp.SubsumedBy(pl.qf)) {
			t.Fatalf("step %d: entry #%d was tested outside the isomorphism probe", step, e.ID)
		}
		return true
	})
}

// requireCreditsBounded executes one query and asserts Σ(R deltas)
// across all cache entries ≤ CandidatesBefore: with marginal crediting,
// overlapping hits cannot be credited for the same spared test twice.
func requireCreditsBounded(t *testing.T, rt *Runtime, q *graph.Graph, kind cache.Kind) {
	t.Helper()
	before := make(map[*cache.Entry]float64)
	rt.cache.ForEach(func(e *cache.Entry) bool {
		before[e] = e.R
		return true
	})
	var res *Result
	var err error
	if kind == cache.KindSub {
		res, err = rt.SubgraphQuery(q)
	} else {
		res, err = rt.SupergraphQuery(q)
	}
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	rt.cache.ForEach(func(e *cache.Entry) bool {
		if prev, ok := before[e]; ok {
			sum += e.R - prev
		}
		return true
	})
	if cb := float64(res.Stats.CandidatesBefore); sum > cb {
		t.Fatalf("query credited %.0f spared tests, only %0.f candidates existed", sum, cb)
	}
}

// TestOverlappingDirectHitsCreditMarginally is the deterministic
// regression for the R-crediting bug: two cached queries that both
// contain the probe and answer the same graphs must split the spared
// tests, not each claim the full set.
func TestOverlappingDirectHitsCreditMarginally(t *testing.T) {
	// Every dataset graph contains the probe path(1,2) and both cached
	// query shapes path(1,2,3) and path(3,1,2)... use two distinct
	// supergraphs of the probe.
	mk := func() *graph.Graph {
		b := graph.NewBuilder()
		v1 := b.AddVertex(1)
		v2 := b.AddVertex(2)
		v3 := b.AddVertex(3)
		v4 := b.AddVertex(4)
		b.AddEdge(v1, v2)
		b.AddEdge(v2, v3)
		b.AddEdge(v1, v4)
		return b.MustBuild()
	}
	var pool []*graph.Graph
	for i := 0; i < 6; i++ {
		pool = append(pool, mk())
	}
	rt, err := NewRuntime(dataset.New(pool), Options{
		Algorithm: subiso.VF2{},
		Cache:     &cache.Config{Capacity: 10, WindowSize: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Seed two overlapping direct hits for the probe: both contain
	// path(1,2), both answer all six graphs.
	seeds := []*graph.Graph{graph.Path(1, 2, 3), graph.Path(4, 1, 2)}
	for _, s := range seeds {
		res, err := rt.SubgraphQuery(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Answer.Count(); got != 6 {
			t.Fatalf("seed query answered %d graphs, want 6", got)
		}
	}
	requireCreditsBounded(t, rt, graph.Path(1, 2), cache.KindSub)
}

// benchHitRuntime returns a runtime whose cache has been warmed with up
// to n distinct subgraph queries (isomorphic draws refresh in place, so
// the final size can fall short on small pools), the warming queries,
// and as many fresh queries drawn the same way, for the findHits
// benchmarks.
func benchHitRuntime(b *testing.B, n int) (rt *Runtime, warm, fresh []*graph.Graph) {
	b.Helper()
	rng := rand.New(rand.NewSource(7))
	rt, _ = hitSystem(b, rng, 200, cache.Config{
		Capacity:   n,
		WindowSize: 20,
	})
	draw := func() *graph.Graph {
		ids := rt.ds.LiveIDs()
		g := rt.ds.Graph(ids[rng.Intn(len(ids))])
		return testutil.BFSExtract(rng, g, rng.Intn(g.NumVertices()), 1+rng.Intn(6))
	}
	for i := 0; i < n && rt.cache.Size()+rt.cache.WindowLen() < n; i++ {
		q := draw()
		if q.NumVertices() == 0 {
			continue
		}
		warm = append(warm, q)
		if _, err := rt.SubgraphQuery(q); err != nil {
			b.Fatal(err)
		}
	}
	for len(fresh) < len(warm) {
		if q := draw(); q.NumVertices() > 0 {
			fresh = append(fresh, q)
		}
	}
	return rt, warm, fresh
}

// BenchmarkFindHits times hit discovery at the paper's cache size (100
// entries plus a window of 20) and at 1 000 entries. "repeat" cycles
// through 64 cached queries under their cached plans: the isomorphism
// probe plus relation replay. "distinct" runs queries the cache has not
// seen, each under a freshly compiled plan with an empty verdict memo:
// the full fingerprint scan with its containment tests, plus the plan
// compile every new query pays.
func BenchmarkFindHits(b *testing.B) {
	for _, n := range []int{120, 1000} {
		rt, warm, fresh := benchHitRuntime(b, n)
		b.Run(fmt.Sprintf("entries=%d/repeat", n), func(b *testing.B) {
			repeats := warm[:min(64, len(warm))]
			for i := 0; i < b.N; i++ {
				var st QueryStats
				rt.findHits(rt.planner.planFor(repeats[i%len(repeats)], cache.KindSub, &st), &st)
			}
		})
		b.Run(fmt.Sprintf("entries=%d/distinct", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				var st QueryStats
				rt.findHits(rt.planner.compile(fresh[i%len(fresh)], cache.KindSub), &st)
			}
		})
	}
}
