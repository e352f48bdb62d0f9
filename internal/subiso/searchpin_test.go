package subiso_test

import (
	"hash/fnv"
	"math/rand"
	"testing"

	"gcplus/internal/graph"
	"gcplus/internal/subiso"
	"gcplus/internal/synthetic"
	"gcplus/internal/workload"
)

// searchPin is one algorithm's committed search over the pin corpus:
// the number of positive tests, the total search states, and an FNV-1a
// digest of every test's (verdict, states) in corpus order.
type searchPin struct {
	positives, states int
	digest            uint64
}

// TestSearchPinned pins the search itself, not just its verdicts: over a
// fixed AIDS-like corpus (300 graphs, 60 Type A queries and 12
// supergraph queries shaped like the ledger's), every query is compiled
// both ways (CompileSub and CompileSuper) for each production algorithm
// and tested against every graph, and each test's verdict and States()
// must match the committed digest. TestLazyOrderSameSearch compares two
// searches that share vf2Match, so it cannot see a change in that shared
// code; this test can. A kernel change that alters the explored tree on
// purpose must re-pin it and say why.
func TestSearchPinned(t *testing.T) {
	want := map[string]searchPin{
		"VF2":  {2186, 786516, 0x1be804c7bffac7fc},
		"VF2+": {2186, 72118, 0x66ebd7b44d0b07af},
		"GQL":  {2186, 17515, 0x9c769c06c7febb2a},
	}
	ds, queries := pinCorpus(t)
	for _, name := range subiso.Names() {
		algo, err := subiso.New(name)
		if err != nil {
			t.Fatal(err)
		}
		var got searchPin
		h := fnv.New64a()
		var rec [9]byte
		for _, q := range queries {
			for _, m := range []*subiso.Matcher{subiso.CompileSub(q, algo), subiso.CompileSuper(q, algo)} {
				for _, g := range ds {
					s0 := m.States()
					ok := m.Contains(g)
					n := m.States() - s0
					rec[0] = 0
					if ok {
						rec[0] = 1
						got.positives++
					}
					for i := 0; i < 8; i++ {
						rec[1+i] = byte(uint64(n) >> (8 * i))
					}
					h.Write(rec[:])
					got.states += n
				}
			}
		}
		got.digest = h.Sum64()
		if got != want[name] {
			t.Errorf("%s: search {positives %d, states %d, digest %#x}, pinned {%d, %d, %#x}",
				name, got.positives, got.states, got.digest, want[name].positives, want[name].states, want[name].digest)
		}
	}
}

// TestContainsAllocs pins the engine's steady state: once a matcher's
// scratch has grown over the corpus, a second pass of Contains calls
// allocates nothing, for every production algorithm in both compile
// directions.
func TestContainsAllocs(t *testing.T) {
	ds, queries := pinCorpus(t)
	for _, name := range subiso.Names() {
		algo, err := subiso.New(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range []*graph.Graph{queries[0], queries[len(queries)-1]} {
			for dir, m := range map[string]*subiso.Matcher{
				"sub": subiso.CompileSub(q, algo), "super": subiso.CompileSuper(q, algo),
			} {
				pass := func() {
					for _, g := range ds {
						m.Contains(g)
					}
				}
				pass()
				if a := testing.AllocsPerRun(5, pass); a != 0 {
					t.Errorf("%s %s: %.1f allocs per pass of %d tests after warm-up", name, dir, a, len(ds))
				}
			}
		}
	}
}

// pinSupers is the number of supergraph queries that end pinCorpus.
const pinSupers = 12

// pinCorpus is the search pin's fixed corpus: 300 AIDS-like graphs, 60
// Type A queries at seed 1, then pinSupers supergraph queries (a dataset
// graph plus three vertices) at seed 1.
func pinCorpus(t testing.TB) (ds, queries []*graph.Graph) {
	ds, err := synthetic.Generate(synthetic.Default().WithGraphs(300))
	if err != nil {
		t.Fatal(err)
	}
	wl, err := workload.TypeA(ds, workload.TypeAConfig{Queries: 60, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	queries = append(queries, wl.Queries...)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < pinSupers; i++ {
		queries = append(queries, subiso.SuperQueryOf(rng, ds[rng.Intn(len(ds))]))
	}
	return ds, queries
}

// BenchmarkVerifyScan is the kernel shape of the ledger's cold_scan
// workload under VF2+, the server's default Method M: 400 distinct Type A
// queries over 1 200 AIDS-like graphs (every 10th query replaced by a
// supergraph query, compiled CompileSuper), each tested against every
// graph as a cache-less verification loop would, plus hit discovery's
// query-to-query tests among the first 120 queries in both directions.
// It reports the mean cost and search states per test; states/test is
// exact, so a kernel change that keeps the search must leave it equal.
func BenchmarkVerifyScan(b *testing.B) {
	ds, err := synthetic.Generate(synthetic.Default().WithGraphs(1200))
	if err != nil {
		b.Fatal(err)
	}
	wl, err := workload.TypeA(ds, workload.TypeAConfig{Queries: 400, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	for _, g := range ds {
		g.Summary()
	}
	rng := rand.New(rand.NewSource(1))
	queries := wl.Queries
	algo := subiso.VF2Plus{}
	var verify, pairSub, pairSuper []*subiso.Matcher
	for i := range queries {
		if i%10 == 9 {
			queries[i] = subiso.SuperQueryOf(rng, ds[rng.Intn(len(ds))])
			verify = append(verify, subiso.CompileSuper(queries[i], algo))
		} else {
			verify = append(verify, subiso.CompileSub(queries[i], algo))
		}
		queries[i].Summary()
	}
	for _, q := range queries[:120] {
		pairSub = append(pairSub, subiso.CompileSub(q, algo))
		pairSuper = append(pairSuper, subiso.CompileSuper(q, algo))
	}
	tests, states := 0, 0
	run := func(ms []*subiso.Matcher, gs []*graph.Graph) {
		for _, m := range ms {
			s0 := m.States()
			for _, g := range gs {
				m.Contains(g)
			}
			tests += len(gs)
			states += m.States() - s0
		}
	}
	for b.Loop() {
		run(verify, ds)
		run(pairSub, queries[:120])
		run(pairSuper, queries[:120])
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(tests), "ns/test")
	b.ReportMetric(float64(states)/float64(tests), "states/test")
}
