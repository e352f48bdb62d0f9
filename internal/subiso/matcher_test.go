package subiso

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"gcplus/internal/graph"
	"gcplus/internal/synthetic"
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

// refOrder is the eager visit-order builder the lazy one replaced, kept
// as its reference: every step rescans all unplaced vertices for the one
// with the most placed neighbours (ties to betterRoot), and the anchors
// are derived from the finished order by buildAnchors.
func refOrder(p *graph.Graph, freq []int32) (order, anchor []int32) {
	n := p.NumVertices()
	order = make([]int32, n)
	inOrder := make([]bool, n)
	ordered := make([]int32, n)
	for k := 0; k < n; k++ {
		best := -1
		for v := 0; v < n; v++ {
			if inOrder[v] {
				continue
			}
			switch {
			case best == -1:
				best = v
			case ordered[v] > ordered[best]:
				best = v
			case ordered[v] == ordered[best] && betterRoot(p, freq, v, best):
				best = v
			}
		}
		inOrder[best] = true
		order[k] = int32(best)
		for _, w := range p.Neighbors(best) {
			ordered[w]++
		}
	}
	var sc scratch
	sc.growPattern(n, 0)
	return order, slices.Clone(sc.buildAnchors(p, order))
}

// refChecks derives a finished order's per-depth checks from the order
// alone, independently of the builder that records them as it places
// each depth: a neighbour placed later counts towards free, one placed
// earlier other than the anchor's vertex goes on the depth's back list.
func refChecks(p *graph.Graph, order, anchor []int32) *visitOrder {
	n := len(order)
	pos := make([]int, n)
	for d, v := range order {
		pos[v] = d
	}
	vo := &visitOrder{order: order, anchor: anchor, free: make([]int32, n), backOff: make([]int32, n+1)}
	for d, v := range order {
		for _, w := range p.Neighbors(int(v)) {
			switch {
			case pos[w] > d:
				vo.free[d]++
			case anchor[d] < 0 || w != order[anchor[d]]:
				vo.back = append(vo.back, w)
			}
		}
		vo.backOff[d+1] = int32(len(vo.back))
	}
	return vo
}

// containsEager is Contains for a VF2/VF2+ Matcher with the whole visit
// order prebuilt by refOrder, its per-depth checks derived by refChecks,
// and the rarity keys looked up per vertex with LabelFreq: only how the
// order and its checks are built differs from Contains, so verdicts and
// States() must agree exactly.
func containsEager(m *Matcher, other *graph.Graph) bool {
	p, t, ps, ts := m.fixed, other, m.fsum, other.Summary()
	if m.super {
		p, t, ps, ts = other, m.fixed, other.Summary(), m.fsum
	}
	if !ps.SubsumedBy(ts) {
		return false
	}
	m.cp, m.ct, m.cps, m.cts, m.np = p, t, ps, ts, p.NumVertices()
	m.prepare(p.NumVertices(), p.NumEdges(), t.NumVertices())
	m.plus = m.kind == kindVF2Plus
	var freq []int32
	if m.plus {
		freq = make([]int32, p.NumVertices())
		for v := range freq {
			freq[v] = ts.LabelFreq(p.Label(v))
		}
	}
	order, anchor := refOrder(p, freq)
	m.vo = refChecks(p, order, anchor)
	m.built = m.np
	return m.vf2Match(0)
}

// fuzzPattern decodes a pattern of 1–24 vertices from data: the first
// byte sizes it, byte pairs after it are edges (self loops and repeats
// skipped, so isolated vertices and several components are common). With
// rarity the same bytes also give each vertex a key from a 4-value
// alphabet, so key ties are the rule, and the key is also the vertex's
// label; without, keys are nil (VF2) and every label is 0.
func fuzzPattern(data []byte, rarity bool) (*graph.Graph, []int32) {
	n := 1
	if len(data) > 0 {
		n += int(data[0]) % 24
		data = data[1:]
	}
	b := graph.NewBuilder()
	var freq []int32
	if rarity {
		freq = make([]int32, n)
	}
	for v := 0; v < n; v++ {
		if rarity && v < len(data) {
			freq[v] = int32(data[v] % 4)
		}
		if rarity {
			b.AddVertex(graph.Label(freq[v]))
		} else {
			b.AddVertex(0)
		}
	}
	seen := map[[2]int]bool{}
	for i := 0; i+1 < len(data); i += 2 {
		u, v := int(data[i])%n, int(data[i+1])%n
		if u > v {
			u, v = v, u
		}
		if u != v && !seen[[2]int{u, v}] {
			seen[[2]int{u, v}] = true
			b.AddEdge(u, v)
		}
	}
	return b.MustBuild(), freq
}

// FuzzVisitOrder checks the lazy visit-order builder against refOrder
// and refChecks: built one depth at a time from the frontier, on scratch
// that already built another order, it must produce the same order,
// anchors, back lists and look-ahead counts.
func FuzzVisitOrder(f *testing.F) {
	f.Add([]byte{5, 0, 1, 1, 2, 3, 4}, false)
	f.Add([]byte{5, 0, 1, 1, 2, 3, 4}, true)
	f.Add([]byte{9}, true)                                  // no edges: all roots
	f.Add([]byte{7, 3, 3, 3, 1, 1, 1, 0, 2, 4, 6, 5}, true) // key ties
	f.Add([]byte{23, 0, 1, 1, 2, 2, 0, 5, 6, 6, 7, 7, 5, 9, 12}, false)
	f.Fuzz(func(t *testing.T, data []byte, rarity bool) {
		p, freq := fuzzPattern(data, rarity)
		order, anchor := refOrder(p, freq)
		want := refChecks(p, order, anchor)
		n := p.NumVertices()
		var sc scratch
		// start dirty: scratch that already built a 24-vertex path's order
		dirty := graph.Path(make([]graph.Label, 24)...)
		sc.growPattern(24, dirty.NumEdges())
		sc.startOrder(24)
		for d := 0; d < 24; d++ {
			sc.nextInOrder(dirty, nil, d)
		}
		sc.growPattern(n, p.NumEdges())
		sc.startOrder(n)
		for d := 0; d < n; d++ {
			sc.nextInOrder(p, freq, d)
		}
		got := sc.vo
		if !slices.Equal(got.order[:n], want.order) || !slices.Equal(got.anchor[:n], want.anchor) {
			t.Fatalf("lazy order %v anchors %v, eager %v anchors %v (keys %v)",
				got.order[:n], got.anchor[:n], want.order, want.anchor, freq)
		}
		if !slices.Equal(got.free[:n], want.free) || !slices.Equal(got.backOff[:n+1], want.backOff) ||
			!slices.Equal(got.back[:got.backOff[n]], want.back) {
			t.Fatalf("order %v: lazy free %v back %v at %v, reference free %v back %v at %v",
				want.order, got.free[:n], got.back[:got.backOff[n]], got.backOff[:n+1], want.free, want.back, want.backOff)
		}
	})
}

// FuzzMatcherAgreesWithBrute decodes a pattern of 1–6 vertices and a
// target of 1–12 with fuzzPattern (labelled from a 4-letter alphabet, or
// all alike) and checks every production matcher against Brute in both
// compile directions: CompileSub(pattern) and CompileSuper(target) must
// each report pattern ⊆ target exactly when Brute does. The sizes keep
// Brute's exhaustive search fast on any input.
//
// Each direction is checked twice: on a fresh matcher, as when a plan's
// first test is a verification, and on one that first tested a
// query-sized graph (its own compiled graph), as a query plan's matchers
// run hit discovery's query-to-query tests before verification. Both
// must give Brute's verdict, and the reused one must explore exactly the
// search states the fresh one does.
func FuzzMatcherAgreesWithBrute(f *testing.F) {
	f.Add([]byte{2, 0, 1, 1, 2}, []byte{5, 0, 1, 1, 2, 2, 3, 3, 4}, false)
	f.Add([]byte{2, 0, 1, 1, 2, 2, 0}, []byte{3, 0, 1, 1, 2, 2, 3, 3, 0}, false) // triangle vs square
	f.Add([]byte{3, 1, 2, 3, 1, 0, 1, 1, 2, 2, 3}, []byte{9, 1, 2, 3, 1, 2, 3, 1, 0, 1, 1, 2, 2, 3, 3, 4, 5, 6}, true)
	f.Add([]byte{1}, []byte{4, 3, 3, 3}, true)
	f.Fuzz(func(t *testing.T, pat, tgt []byte, labelled bool) {
		clip := func(data []byte, n byte) []byte {
			if len(data) == 0 {
				return data
			}
			return append([]byte{data[0] % n}, data[1:]...)
		}
		p, _ := fuzzPattern(clip(pat, 6), labelled)
		tg, _ := fuzzPattern(clip(tgt, 12), labelled)
		want := Brute{}.Contains(p, tg)
		for _, name := range Names() {
			algo, _ := New(name)
			for _, c := range []struct {
				dir         string
				compile     func() *Matcher
				first, test *graph.Graph
			}{
				{"CompileSub", func() *Matcher { return CompileSub(p, algo) }, p, tg},
				{"CompileSuper", func() *Matcher { return CompileSuper(tg, algo) }, tg, p},
			} {
				m, fresh := c.compile(), c.compile()
				if !m.Contains(c.first) {
					t.Fatalf("%s %s: a graph does not contain itself\n%v", name, c.dir, c.first)
				}
				s0 := m.States()
				if got := m.Contains(c.test); got != want {
					t.Fatalf("%s %s: %v, brute %v\npattern %v\ntarget %v", name, c.dir, got, want, p, tg)
				}
				if got := fresh.Contains(c.test); got != want {
					t.Fatalf("%s %s fresh: %v, brute %v\npattern %v\ntarget %v", name, c.dir, got, want, p, tg)
				}
				if d := m.States() - s0; d != fresh.States() {
					t.Fatalf("%s %s: %d states after a first test, %d fresh\npattern %v\ntarget %v",
						name, c.dir, d, fresh.States(), p, tg)
				}
			}
		}
	})
}

// TestMatcherStates pins the search-state counter: it grows with the
// search, stays put on a quick-reject, and a Fork starts at zero.
func TestMatcherStates(t *testing.T) {
	pattern := graph.Path(0, 0, 0)
	target := graph.Clique(0, 0, 0, 0)
	for _, algo := range allAlgorithms {
		m := CompileSub(pattern, algo)
		if !m.Contains(target) || m.States() < pattern.NumVertices() {
			t.Fatalf("%s: %d states for a 3-vertex embedding", algo.Name(), m.States())
		}
		before := m.States()
		if m.Contains(graph.Path(1, 1)) || m.States() != before {
			t.Fatalf("%s: rejected test counted %d states", algo.Name(), m.States()-before)
		}
		if f := m.Fork(); f.States() != 0 {
			t.Fatalf("%s: fork starts at %d states", algo.Name(), f.States())
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

// superQueryOf is a supergraph query drawn the way the perf ledger's
// cold_scan workload draws them: g plus three vertices, each carrying
// one of g's labels and hung off a random vertex.
func superQueryOf(rng *rand.Rand, g *graph.Graph) *graph.Graph {
	b := graph.NewBuilder()
	for v := 0; v < g.NumVertices(); v++ {
		b.AddVertex(g.Label(v))
	}
	for _, e := range g.EdgeList() {
		b.AddEdge(int(e.U), int(e.V))
	}
	for x := 0; x < 3; x++ {
		anchor := rng.Intn(b.NumVertices())
		b.AddEdge(anchor, b.AddVertex(g.Label(rng.Intn(g.NumVertices()))))
	}
	return b.MustBuild()
}

// BenchmarkVerifyCompiled measures the compiled-matcher verification loop
// (compile once, pooled scratch): a query-sized pattern against AIDS-sized
// targets, and (super/) a supergraph query against AIDS-like dataset
// graphs as the candidate patterns.
func BenchmarkVerifyCompiled(b *testing.B) {
	pattern, targets := verifyBenchCase()
	ds := synthetic.MustGenerate(synthetic.Default().WithGraphs(64))
	for _, g := range ds {
		g.Summary()
	}
	super := superQueryOf(rand.New(rand.NewSource(7)), ds[0])
	for _, algo := range allAlgorithms[:3] {
		b.Run(algo.Name(), func(b *testing.B) {
			m := CompileSub(pattern, algo)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Contains(targets[i%len(targets)])
			}
		})
		b.Run("super/"+algo.Name(), func(b *testing.B) {
			m := CompileSuper(super, algo)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Contains(ds[i%len(ds)])
			}
		})
	}
}
