package core

import (
	"math/rand"
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

func benchmarkExactHit(b *testing.B, n int) {
	rt, q := exactHitRuntime(b, n)
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
