package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"gcplus/internal/cache"
	"gcplus/internal/graph"
	"gcplus/internal/subiso"
	"gcplus/internal/testutil"
)

// exactHitRuntime returns a runtime over n live graphs whose cache holds
// one query, and that query: repeating it is a fully valid exact hit.
func exactHitRuntime(tb testing.TB, n int) (*Runtime, *graph.Graph) {
	tb.Helper()
	rng := rand.New(rand.NewSource(3))
	ds, _ := newTestDataset(rng, n)
	rt, err := NewRuntime(ds, Options{Algorithm: subiso.VF2{}, Cache: &cache.Config{}})
	if err != nil {
		tb.Fatal(err)
	}
	q := testutil.BFSExtract(rng, ds.Graph(0), 0, 3)
	for i := 0; i < 2; i++ {
		res, err := rt.SubgraphQuery(q)
		if err != nil {
			tb.Fatal(err)
		}
		if res.Stats.ExactHit != (i == 1) {
			tb.Fatalf("query %d: ExactHit = %v", i, res.Stats.ExactHit)
		}
	}
	if got := rt.CacheSize() + rt.cache.WindowLen(); got != 1 {
		tb.Fatalf("cache holds %d entries, want 1", got)
	}
	return rt, q
}

// TestExactHitCostFlatInDatasetSize: an exact hit reads one entry's
// bitsets and refreshes them in place, so its allocation count must not
// grow with the number of live graphs — no per-graph bookkeeping on the
// hit path.
func TestExactHitCostFlatInDatasetSize(t *testing.T) {
	allocs := func(n int) float64 {
		rt, q := exactHitRuntime(t, n)
		return testing.AllocsPerRun(20, func() {
			res, err := rt.SubgraphQuery(q)
			if err != nil || !res.Stats.ExactHit {
				t.Fatalf("repeat not an exact hit (err %v)", err)
			}
		})
	}
	small, large := allocs(600), allocs(6000)
	if small != large {
		t.Fatalf("exact hit allocates %.0f times at 600 live graphs, %.0f at 6000", small, large)
	}
}

// relatedCacheRuntime returns a runtime over 60 live graphs whose cache
// holds n entries, every one of them related to the returned query: the
// query (a lone label-1 vertex) is cached first, then n−1 distinct paths
// that start at a label-1 vertex and contain it. A repeat of the query is
// a fully valid exact hit whose isomorphic entry has n−1 relatives.
func relatedCacheRuntime(tb testing.TB, n int) (*Runtime, *graph.Graph) {
	tb.Helper()
	rng := rand.New(rand.NewSource(3))
	ds, _ := newTestDataset(rng, 60)
	rt, err := NewRuntime(ds, Options{Algorithm: subiso.VF2{}, Cache: &cache.Config{Capacity: n, WindowSize: 20}})
	if err != nil {
		tb.Fatal(err)
	}
	q := graph.Path(1)
	if _, err := rt.SubgraphQuery(q); err != nil {
		tb.Fatal(err)
	}
	// path(1, a, b, c, d, 0) over middle labels 2..9: its reversal ends
	// in label 1, so no two of them are isomorphic.
	for i := 0; rt.CacheSize()+rt.cache.WindowLen() < n; i++ {
		p := graph.Path(1, graph.Label(2+i%8), graph.Label(2+i/8%8), graph.Label(2+i/64%8), graph.Label(2+i/512%8), 0)
		if _, err := rt.SubgraphQuery(p); err != nil {
			tb.Fatal(err)
		}
	}
	res, err := rt.SubgraphQuery(q)
	if err != nil {
		tb.Fatal(err)
	}
	// The scan counts the isomorphic entry as one of the containing hits.
	if !res.Stats.ExactHit || res.Stats.ContainingHits != n {
		tb.Fatalf("repeat: ExactHit %v with %d containing hits, want an exact hit with %d", res.Stats.ExactHit, res.Stats.ContainingHits, n)
	}
	return rt, q
}

// TestExactHitCostFlatInCacheSize: a fully valid exact repeat goes
// straight to its plan's remembered entry, so neither its allocations
// nor its query-to-query containment work (the hit matchers' search
// states) may grow with the number of cached entries related to it.
func TestExactHitCostFlatInCacheSize(t *testing.T) {
	cost := func(n int) (allocs float64, states int) {
		rt, q := relatedCacheRuntime(t, n)
		pl := rt.planner.planFor(q, cache.KindSub, &QueryStats{})
		s0 := pl.gAsPattern.States() + pl.gAsTarget.States()
		allocs = testing.AllocsPerRun(20, func() {
			res, err := rt.SubgraphQuery(q)
			if err != nil || !res.Stats.ExactHit {
				t.Fatalf("repeat not an exact hit (err %v)", err)
			}
			if res.Stats.HitScanned != 0 {
				t.Fatalf("exact repeat scanned %d entries", res.Stats.HitScanned)
			}
		})
		return allocs, pl.gAsPattern.States() + pl.gAsTarget.States() - s0
	}
	smallA, smallS := cost(120)
	largeA, largeS := cost(1000)
	if smallA != largeA || smallS != largeS {
		t.Fatalf("exact hit costs %.0f allocs / %d containment states with 120 related entries, %.0f / %d with 1000",
			smallA, smallS, largeA, largeS)
	}
}

func benchmarkExactHit(b *testing.B, n int) {
	rt, q := exactHitRuntime(b, n)
	runExactHits(b, rt, q)
}

func runExactHits(b *testing.B, rt *Runtime, q *graph.Graph) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rt.SubgraphQuery(q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExactHit600(b *testing.B)  { benchmarkExactHit(b, 600) }
func BenchmarkExactHit6000(b *testing.B) { benchmarkExactHit(b, 6000) }

// BenchmarkExactHitRelated1000 repeats an exact hit whose isomorphic
// entry shares the cache with 999 entries related to it: what hit
// discovery would walk if the repeat did not go straight to its entry.
func BenchmarkExactHitRelated1000(b *testing.B) {
	rt, q := relatedCacheRuntime(b, 1000)
	runExactHits(b, rt, q)
}

// memoTwin is one of the two runtimes TestExactHitMemoMatchesScan drives
// in lockstep: built from the same seed and fed the same random draws,
// so the two stay identical as long as their query paths agree.
type memoTwin struct {
	rt      *Runtime
	rng     *rand.Rand
	pool    []*graph.Graph // graphs ADD draws from
	repeats []memoQuery
	// scan makes every query run under a freshly compiled plan, whose
	// empty iso memo forces hit discovery to scan.
	scan bool
}

type memoQuery struct {
	q    *graph.Graph
	kind cache.Kind
}

func newMemoTwin(t *testing.T, seed int64, cfg cache.Config, scan bool) *memoTwin {
	rng := rand.New(rand.NewSource(seed))
	rt, pool := hitSystem(t, rng, 24, cfg)
	tw := &memoTwin{rt: rt, rng: rng, pool: pool, scan: scan}
	for i := 0; i < 6; i++ {
		tw.repeats = append(tw.repeats, memoQuery{hitQuery(rng, rt.ds, nil), cache.Kind(rng.Intn(2))})
	}
	return tw
}

// run executes q under the twin's plan discipline and returns the result
// with the plan it ran under.
func (tw *memoTwin) run(t *testing.T, q memoQuery) (*Result, *queryPlan) {
	t.Helper()
	if tw.scan {
		tw.rt.planner.store(planKey(q.q, q.kind), tw.rt.planner.compile(q.q, q.kind))
	}
	res, err := tw.rt.process(t.Context(), q.q, q.kind, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return res, tw.rt.planner.planFor(q.q, q.kind, &QueryStats{})
}

// churn applies one step of random cache and dataset evolution: updates,
// partial repair drains, purges, and fresh queries that admit and evict.
func (tw *memoTwin) churn(t *testing.T) {
	rng, rt := tw.rng, tw.rt
	if rng.Intn(3) == 0 {
		testutil.RandomChange(rng, rt.ds, tw.pool)
	}
	if rng.Intn(4) == 0 {
		rt.Sync()
		rt.CommitRepairs(rt.VerifyRepairs(rt.PlanRepairs(1+rng.Intn(6)), 1))
	}
	if rng.Intn(30) == 0 {
		rt.cache.Purge()
	}
	if rng.Intn(2) == 0 {
		tw.run(t, memoQuery{hitQuery(rng, rt.ds, nil), cache.Kind(rng.Intn(2))})
	}
	testutil.RequireCacheIndex(t, rt.cache)
}

// cacheDigest renders every cache entry's identity, statistics and
// bitsets, so two runtimes can be compared entry for entry.
func cacheDigest(rt *Runtime) string {
	var b strings.Builder
	rt.cache.ForEach(func(e *cache.Entry) bool {
		fmt.Fprintf(&b, "#%d %s R=%g hits=%d used=%d seq=%d answer=%v valid=%v\n",
			e.ID, e.Kind, e.R, e.Hits, e.LastUsed, e.Seq, e.Answer, e.Valid)
		return true
	})
	return b.String()
}

func entryID(e *cache.Entry) int {
	if e == nil {
		return -1
	}
	return e.ID
}

// TestExactHitMemoMatchesScan is the soundness property of the exact-hit
// fast path. Two runtimes start from the same seed and go through the
// same random ADD/DEL/UA/UR updates, partial repair drains, purges and
// evicting admissions, under CON and EVI. After every step each query of
// a repeat pool runs on both: on one under its cached plan, which goes
// straight to a remembered isomorphic entry when it can, on the other
// under a freshly compiled plan, which always scans. The answers (also
// against brute force), ExactHit, the iso entry and the whole cache
// state must agree, and the fast path must only ever serve an entry
// that is resident and that the scan, too, found fully valid.
func TestExactHitMemoMatchesScan(t *testing.T) {
	for _, tc := range []struct {
		model  cache.Model
		policy cache.Policy
		seed   int64
	}{
		{cache.ModelCON, cache.PolicyPIN, 5},
		{cache.ModelCON, cache.PolicyLRU, 23},
		{cache.ModelEVI, cache.PolicyPIN, 41},
	} {
		// PIN and LRU score without the clock, so eviction is
		// deterministic and the twins cannot drift apart.
		cfg := cache.Config{Capacity: 6, WindowSize: 2, Model: tc.model, Policy: tc.policy, RepairQueue: 64}
		t.Run(fmt.Sprintf("%s/%s/seed=%d", tc.model, tc.policy, tc.seed), func(t *testing.T) {
			t.Parallel()
			memo := newMemoTwin(t, tc.seed, cfg, false)
			scan := newMemoTwin(t, tc.seed, cfg, true)
			var fast, retired, notValid int
			for step := 0; step < 150; step++ {
				memo.churn(t)
				scan.churn(t)
				for i, mq := range memo.repeats {
					pl := memo.rt.planner.planFor(mq.q, mq.kind, &QueryStats{})
					armed := pl.iso
					if armed != nil && !armed.Resident() {
						retired++
					}
					res, after := memo.run(t, mq)
					want, scanPl := scan.run(t, scan.repeats[i])
					st, ws := res.Stats, want.Stats
					if !res.Answer.Equal(want.Answer) || st.ExactHit != ws.ExactHit ||
						st.EmptyShortcut != ws.EmptyShortcut || st.SubIsoTests != ws.SubIsoTests || st.IsoHits != ws.IsoHits {
						t.Fatalf("step %d query %d: memo run %v %+v, scan run %v %+v", step, i, res.Answer, st, want.Answer, ws)
					}
					if entryID(after.iso) != entryID(scanPl.iso) {
						t.Fatalf("step %d query %d: iso entry %v, scan found %v", step, i, after.iso, scanPl.iso)
					}
					truth := testutil.GroundTruthSub(memo.rt.ds, mq.q)
					if mq.kind == cache.KindSuper {
						truth = testutil.GroundTruthSuper(memo.rt.ds, mq.q)
					}
					if !res.Answer.Equal(truth) {
						t.Fatalf("step %d query %d: answer %v, brute force %v", step, i, res.Answer, truth)
					}
					switch {
					case st.ExactHit && st.HitScanned == 0:
						// The fast path: it served the armed entry, which
						// must have been resident, and the scan twin's
						// exact hit proves that entry fully valid.
						fast++
						if after != pl || after.iso != armed || armed == nil || !armed.Resident() {
							t.Fatalf("step %d query %d: fast path served %v, armed %v", step, i, after.iso, armed)
						}
					case armed != nil && armed.Resident():
						notValid++
					}
				}
				if a, b := cacheDigest(memo.rt), cacheDigest(scan.rt); a != b {
					t.Fatalf("step %d: caches diverge:\nmemo:\n%sscan:\n%s", step, a, b)
				}
			}
			if fast == 0 || retired == 0 || (tc.model == cache.ModelCON && notValid == 0) {
				t.Fatalf("scenario too weak: %d fast-path hits, %d retired memos, %d memos not fully valid", fast, retired, notValid)
			}
			t.Logf("%d fast-path hits, %d retired memos, %d memos not fully valid", fast, retired, notValid)
		})
	}
}
