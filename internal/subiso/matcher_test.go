package subiso

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"gcplus/internal/graph"
)

// bruteContains is the package's one independent oracle: exhaustive
// per-call backtracking with no ordering heuristics, no pruning beyond
// label equality, injectivity and edge preservation, and no code shared
// with the compiled Matcher engine.
func bruteContains(pattern, target *graph.Graph) bool {
	np, nt := pattern.NumVertices(), target.NumVertices()
	if np == 0 {
		return true
	}
	if np > nt {
		return false
	}
	core := make([]int, np)
	for i := range core {
		core[i] = -1
	}
	used := make([]bool, nt)
	var rec func(u int) bool
	rec = func(u int) bool {
		if u == np {
			return true
		}
		for v := 0; v < nt; v++ {
			if used[v] || pattern.Label(u) != target.Label(v) {
				continue
			}
			ok := true
			for _, w := range pattern.Neighbors(u) {
				if m := core[w]; m >= 0 && !target.HasEdge(m, v) {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			core[u] = v
			used[v] = true
			if rec(u + 1) {
				return true
			}
			core[u] = -1
			used[v] = false
		}
		return false
	}
	return rec(0)
}

// TestMatcherAgreesWithOracle is the compiled engine's central property:
// a Matcher reused across many targets of varying size (dirty scratch and
// all) must return exactly the brute-force oracle's verdict for every
// algorithm, in both the CompileSub and CompileSuper directions.
func TestMatcherAgreesWithOracle(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		pattern := randomGraph(rng, 7, 3, 0.35)
		targets := make([]*graph.Graph, 8)
		for i := range targets {
			if rng.Intn(3) == 0 && pattern.NumEdges() > 0 {
				// supergraphs of the pattern keep positives in the mix
				targets[i] = randomSupergraph(rng, pattern)
			} else {
				targets[i] = randomGraph(rng, 14, 3, 0.3)
			}
		}
		for _, algo := range allAlgorithms {
			sub := CompileSub(pattern, algo)
			for _, tg := range targets {
				want := bruteContains(pattern, tg)
				if sub.Contains(tg) != want {
					t.Logf("seed %d: %s CompileSub disagrees (want %v)", seed, algo.Name(), want)
					return false
				}
			}
			// super direction: one fixed target, the same graphs as
			// candidate patterns.
			super := CompileSuper(targets[0], algo)
			for _, cand := range targets[1:] {
				want := bruteContains(cand, targets[0])
				if super.Contains(cand) != want {
					t.Logf("seed %d: %s CompileSuper disagrees (want %v)", seed, algo.Name(), want)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// randomSupergraph embeds pattern into a larger random graph, guaranteeing
// a positive containment case.
func randomSupergraph(rng *rand.Rand, pattern *graph.Graph) *graph.Graph {
	b := graph.NewBuilder()
	for v := 0; v < pattern.NumVertices(); v++ {
		b.AddVertex(pattern.Label(v))
	}
	for _, e := range pattern.EdgeList() {
		b.AddEdge(int(e.U), int(e.V))
	}
	extra := 1 + rng.Intn(6)
	for i := 0; i < extra; i++ {
		v := b.AddVertex(graph.Label(rng.Intn(3)))
		if v > 0 {
			b.AddEdge(rng.Intn(v), v)
		}
	}
	g, err := b.Build()
	if err != nil {
		// duplicate edge from the random wiring: fall back to the pattern
		return pattern
	}
	return g
}

// TestMatcherReuseAfterEarlyExit makes sure a search that returns true
// mid-tree (leaving core/used dirty) does not poison the next call.
func TestMatcherReuseAfterEarlyExit(t *testing.T) {
	const A graph.Label = 0
	pattern := graph.Path(A, A)
	hit := graph.Clique(A, A, A) // succeeds immediately, scratch left dirty
	miss := graph.Path(A, 1)     // must still be rejected afterwards
	hit2 := graph.Path(A, A, A)  // and positives must still be found
	for _, algo := range allAlgorithms {
		m := CompileSub(pattern, algo)
		for i := 0; i < 3; i++ {
			if !m.Contains(hit) {
				t.Fatalf("%s: hit missed on round %d", algo.Name(), i)
			}
			if m.Contains(miss) {
				t.Fatalf("%s: false positive after early exit on round %d", algo.Name(), i)
			}
			if !m.Contains(hit2) {
				t.Fatalf("%s: positive missed after reject on round %d", algo.Name(), i)
			}
		}
	}
}

// TestMatcherForkParallel runs forked matchers concurrently under -race:
// forks share only immutable compiled artifacts, so verdicts must match
// the sequential ground truth.
func TestMatcherForkParallel(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	pattern := randomGraph(rng, 6, 3, 0.4)
	targets := make([]*graph.Graph, 64)
	for i := range targets {
		targets[i] = randomGraph(rng, 16, 3, 0.3)
	}
	want := make([]bool, len(targets))
	for i, tg := range targets {
		want[i] = bruteContains(pattern, tg)
	}
	for _, algo := range allAlgorithms {
		base := CompileSub(pattern, algo)
		const workers = 4
		got := make([]bool, len(targets))
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				m := base.Fork()
				for i := w; i < len(targets); i += workers {
					got[i] = m.Contains(targets[i])
				}
			}(w)
		}
		wg.Wait()
		for i := range targets {
			if got[i] != want[i] {
				t.Fatalf("%s: fork verdict %v != %v on target %d", algo.Name(), got[i], want[i], i)
			}
		}
	}
}

func TestMatcherEmptyAndTrivial(t *testing.T) {
	empty := graph.NewBuilder().MustBuild()
	single := graph.Single(1)
	for _, algo := range allAlgorithms {
		if !CompileSub(empty, algo).Contains(single) {
			t.Errorf("%s: empty pattern should be contained", algo.Name())
		}
		if !CompileSuper(single, algo).Contains(empty) {
			t.Errorf("%s: empty candidate should be contained (super)", algo.Name())
		}
		if CompileSub(single, algo).Contains(empty) {
			t.Errorf("%s: vertex cannot embed in empty target", algo.Name())
		}
		if m := CompileSub(single, algo); !m.Contains(single) {
			t.Errorf("%s: identity containment failed", algo.Name())
		}
	}
}

// verifyBenchCase builds the verify benchmark's fixture: one
// query-sized pattern and a batch of AIDS-sized targets, mimicking the
// runtime's verification loop over a pruned candidate set.
func verifyBenchCase() (*graph.Graph, []*graph.Graph) {
	rng := rand.New(rand.NewSource(7))
	targets := make([]*graph.Graph, 64)
	for i := range targets {
		targets[i] = randomGraph(rng, 45, 6, 0.06)
	}
	pattern := bfsExtract(rng, targets[0], 8)
	// Pre-warm summaries, as Dataset insertion does in production.
	for _, tg := range targets {
		tg.Summary()
	}
	return pattern, targets
}

// BenchmarkVerifyCompiled measures the compiled-matcher verification loop
// (compile once, pooled scratch).
func BenchmarkVerifyCompiled(b *testing.B) {
	pattern, targets := verifyBenchCase()
	for _, algo := range allAlgorithms[:3] {
		b.Run(algo.Name(), func(b *testing.B) {
			m := CompileSub(pattern, algo)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Contains(targets[i%len(targets)])
			}
		})
	}
}
