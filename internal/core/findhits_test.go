package core

// Differential tests pinning hit discovery to its reference: the
// index-backed findHits must classify every cache entry (direct /
// restrict / iso) exactly as the linear-scan reference findHitsScan
// below, in the same order, under randomized workloads with
// evictions, purges, refreshes and background repair churning the cache.
// The same loop also pins the marginal R-crediting property: per query,
// the total credit handed to cache entries never exceeds the number of
// candidates Method M would have tested.

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

// findHitsScan is the linear-scan reference for findHits: every window
// and cache entry is visited, every same-kind one examined. Callers hand
// it a freshly compiled plan (planner.compile, empty verdict memo) so
// every verdict comes from a query-to-query test, never from what the
// index-backed path memoized.
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

// TestFindHitsIndexedMatchesScan drives a cached runtime through
// randomized queries, dataset changes, repair drains and purges, and at
// every step asserts that the index-backed and linear-scan hit
// discovery return identical classifications — same direct and restrict
// slices (same entries, same order), same iso entry, same hit counters
// — and that the index examined no more entries than the scan.
func TestFindHitsIndexedMatchesScan(t *testing.T) {
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

				// The index runs under the plan a real query would get —
				// cached across repeats, verdict memo and all — the scan
				// under a fresh one, so the reference stays independent.
				var stScan, stIdx QueryStats
				dScan, rScan, isoScan := rt.findHitsScan(rt.planner.compile(q, kind), &stScan)
				dIdx, rIdx, isoIdx := rt.findHits(rt.planner.planFor(q, kind, &stIdx), &stIdx)
				if !sameEntries(dScan, dIdx) {
					t.Fatalf("step %d: direct hits diverge: scan %v, index %v", step, dScan, dIdx)
				}
				if !sameEntries(rScan, rIdx) {
					t.Fatalf("step %d: restrict hits diverge: scan %v, index %v", step, rScan, rIdx)
				}
				if isoScan != isoIdx {
					t.Fatalf("step %d: iso diverges: scan %v, index %v", step, isoScan, isoIdx)
				}
				if stScan.ContainingHits != stIdx.ContainingHits ||
					stScan.ContainedHits != stIdx.ContainedHits ||
					stScan.IsoHits != stIdx.IsoHits {
					t.Fatalf("step %d: hit counters diverge: scan %+v, index %+v", step, stScan, stIdx)
				}
				// On the fallback path HitCandidates is a distinct
				// count ≤ the scan's; the relation fast path adds its
				// probe on top, but probe ⊆ same-kind entries and
				// related ⊆ hits, so twice the scan's work bounds both.
				if stIdx.HitCandidates > 2*stScan.HitCandidates+1 {
					t.Fatalf("step %d: index examined %d entries, scan only %d",
						step, stIdx.HitCandidates, stScan.HitCandidates)
				}

				// Run the query for real so the cache keeps evolving
				// (admissions, evictions, refreshes), and pin the
				// marginal-credit property along the way.
				requireCreditsBounded(t, rt, q, kind)
			}
		})
	}
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
// to n distinct queries (isomorphic draws refresh in place, so the
// final size can fall short on small pools), for the findHits
// benchmarks.
func benchHitRuntime(b *testing.B, n int) (*Runtime, []*graph.Graph) {
	b.Helper()
	rng := rand.New(rand.NewSource(7))
	rt, _ := hitSystem(b, rng, 200, cache.Config{
		Capacity:   n,
		WindowSize: 20,
	})
	var queries []*graph.Graph
	for i := 0; i < n && rt.cache.Size()+rt.cache.WindowLen() < n; i++ {
		ids := rt.ds.LiveIDs()
		g := rt.ds.Graph(ids[rng.Intn(len(ids))])
		q := testutil.BFSExtract(rng, g, rng.Intn(g.NumVertices()), 1+rng.Intn(6))
		if q.NumVertices() == 0 {
			continue
		}
		queries = append(queries, q)
		if _, err := rt.SubgraphQuery(q); err != nil {
			b.Fatal(err)
		}
	}
	return rt, queries
}

func benchmarkFindHits(b *testing.B, entries int, indexed bool) {
	rt, queries := benchHitRuntime(b, entries)
	find := rt.findHitsScan
	if indexed {
		find = rt.findHits
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var st QueryStats
		find(rt.planner.planFor(queries[i%len(queries)], cache.KindSub, &st), &st)
	}
}

func BenchmarkFindHitsScan1000(b *testing.B)    { benchmarkFindHits(b, 1000, false) }
func BenchmarkFindHitsIndexed1000(b *testing.B) { benchmarkFindHits(b, 1000, true) }
func BenchmarkFindHitsScan4000(b *testing.B)    { benchmarkFindHits(b, 4000, false) }
func BenchmarkFindHitsIndexed4000(b *testing.B) { benchmarkFindHits(b, 4000, true) }
