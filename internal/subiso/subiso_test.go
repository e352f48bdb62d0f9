package subiso

import (
	"math/rand"
	"testing"
	"testing/quick"

	"gcplus/internal/graph"
)

var allAlgorithms = []Algorithm{VF2{}, VF2Plus{}, GraphQL{}, Brute{}}

func TestNew(t *testing.T) {
	for _, name := range Names() {
		a, err := New(name)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if a.Name() != name {
			t.Errorf("New(%q).Name() = %q", name, a.Name())
		}
	}
	// The brute-force oracle is built directly by tests, never by name.
	for _, name := range []string{"nope", "BRUTE"} {
		if _, err := New(name); err == nil {
			t.Errorf("New(%q) accepted a non-production algorithm", name)
		}
	}
	if got := len(Names()); got != 3 {
		t.Errorf("Names() has %d entries, want 3", got)
	}
}

// table-driven known cases exercised against every algorithm.
func TestKnownCases(t *testing.T) {
	const (
		A graph.Label = iota
		B
		C
	)
	triangleAAA := graph.Cycle(A, A, A)
	cases := []struct {
		name    string
		pattern *graph.Graph
		target  *graph.Graph
		want    bool
	}{
		{"single vertex in path", graph.Single(A), graph.Path(B, A, B), true},
		{"single vertex absent label", graph.Single(C), graph.Path(B, A, B), false},
		{"edge in path", graph.Path(A, B), graph.Path(A, B, A), true},
		{"edge reversed labels", graph.Path(B, A), graph.Path(A, B, A), true},
		{"path in cycle", graph.Path(A, A, A), triangleAAA, true},
		{"non-induced: P3 in triangle", graph.Path(A, A, A), triangleAAA, true},
		{"triangle in path", triangleAAA, graph.Path(A, A, A, A), false},
		{"triangle in K4", graph.Cycle(A, A, A), graph.Clique(A, A, A, A), true},
		{"star degree exceeds", graph.Star(A, B, B, B), graph.Path(B, A, B), false},
		{"star fits", graph.Star(A, B, B), graph.Star(A, B, B, B), true},
		{"label multiset exceeds", graph.Path(A, A), graph.Path(A, B), false},
		{"pattern bigger than target", graph.Path(A, A, A), graph.Path(A, A), false},
		{"exact match", graph.Cycle(A, B, C), graph.Cycle(A, B, C), true},
		{"square in triangle", graph.Cycle(A, A, A, A), triangleAAA, false},
		{"square in K4", graph.Cycle(A, A, A, A), graph.Clique(A, A, A, A), true},
		{"labeled cycle rotation", graph.Cycle(A, B, C), graph.Cycle(C, A, B), true},
		{"labeled cycle wrong multiset", graph.Cycle(A, B, B), graph.Cycle(A, A, B), false},
	}
	for _, c := range cases {
		for _, algo := range allAlgorithms {
			if got := algo.Contains(c.pattern, c.target); got != c.want {
				t.Errorf("%s: %s.Contains = %v, want %v", c.name, algo.Name(), got, c.want)
			}
		}
	}
}

func TestEmptyPattern(t *testing.T) {
	empty := graph.NewBuilder().MustBuild()
	target := graph.Path(1, 2)
	for _, algo := range allAlgorithms {
		if !algo.Contains(empty, target) {
			t.Errorf("%s: empty pattern should be contained", algo.Name())
		}
	}
}

func TestSelfContainment(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 25; i++ {
		g := randomGraph(rng, 14, 4, 0.3)
		for _, algo := range allAlgorithms {
			if !algo.Contains(g, g) {
				t.Fatalf("%s: G ⊆ G failed for %v", algo.Name(), g)
			}
		}
	}
}

func TestDisconnectedPattern(t *testing.T) {
	// pattern: two isolated vertices A, A; target: path A-B-A
	b := graph.NewBuilder()
	b.AddVertex(0)
	b.AddVertex(0)
	pattern := b.MustBuild()
	target := graph.Path(0, 1, 0)
	for _, algo := range allAlgorithms {
		if !algo.Contains(pattern, target) {
			t.Errorf("%s: disconnected pattern should match", algo.Name())
		}
	}
	// needs two A vertices; target with one A must fail
	small := graph.Path(0, 1)
	for _, algo := range allAlgorithms {
		if algo.Contains(pattern, small) {
			t.Errorf("%s: injectivity violated on disconnected pattern", algo.Name())
		}
	}
	// two disconnected edges inside a 4-cycle
	b2 := graph.NewBuilder()
	for i := 0; i < 4; i++ {
		b2.AddVertex(0)
	}
	b2.AddEdge(0, 1).AddEdge(2, 3)
	twoEdges := b2.MustBuild()
	square := graph.Cycle(0, 0, 0, 0)
	for _, algo := range allAlgorithms {
		if !algo.Contains(twoEdges, square) {
			t.Errorf("%s: two disjoint edges should embed in C4", algo.Name())
		}
	}
}

// randomGraph generates a random graph with n vertices (1..maxN), labels
// in [0,labels), and edge probability p.
func randomGraph(rng *rand.Rand, maxN, labels int, p float64) *graph.Graph {
	n := 1 + rng.Intn(maxN)
	b := graph.NewBuilder()
	for i := 0; i < n; i++ {
		b.AddVertex(graph.Label(rng.Intn(labels)))
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				b.AddEdge(u, v)
			}
		}
	}
	return b.MustBuild()
}

// bfsExtract extracts a connected subgraph of g with up to maxEdges edges,
// starting from a random vertex (mirrors the paper's Type A generation).
func bfsExtract(rng *rand.Rand, g *graph.Graph, maxEdges int) *graph.Graph {
	if g.NumVertices() == 0 {
		return g
	}
	start := rng.Intn(g.NumVertices())
	b := graph.NewBuilder()
	idx := map[int]int{start: b.AddVertex(g.Label(start))}
	queue := []int{start}
	edges := 0
	for len(queue) > 0 && edges < maxEdges {
		v := queue[0]
		queue = queue[1:]
		for _, w := range g.Neighbors(v) {
			if edges >= maxEdges {
				break
			}
			wi, seen := idx[int(w)]
			if !seen {
				wi = b.AddVertex(g.Label(int(w)))
				idx[int(w)] = wi
				queue = append(queue, int(w))
				b.AddEdge(idx[v], wi)
				edges++
			}
		}
	}
	return b.MustBuild()
}

// TestQuickAlgorithmsAgree is the central cross-validation property: all
// four algorithms must return the same verdict on random pairs.
func TestQuickAlgorithmsAgree(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		target := randomGraph(rng, 12, 3, 0.3)
		var pattern *graph.Graph
		if rng.Intn(2) == 0 {
			pattern = bfsExtract(rng, target, 1+rng.Intn(6))
		} else {
			pattern = randomGraph(rng, 6, 3, 0.4)
		}
		want := Brute{}.Contains(pattern, target)
		for _, algo := range allAlgorithms[:3] {
			if algo.Contains(pattern, target) != want {
				t.Logf("disagreement: %s on seed %d (want %v)", algo.Name(), seed, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 250}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickExtractedAlwaysContained: any BFS-extracted subgraph must be
// found by every algorithm.
func TestQuickExtractedAlwaysContained(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		target := randomGraph(rng, 20, 4, 0.25)
		pattern := bfsExtract(rng, target, 1+rng.Intn(10))
		for _, algo := range allAlgorithms {
			if !algo.Contains(pattern, target) {
				t.Logf("%s missed extracted subgraph (seed %d)", algo.Name(), seed)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickCountPositiveIffContains cross-checks Brute, the Algorithm
// that runs on the compiled Matcher engine with no heuristics, against
// the package's independent oracle bruteContains on random pairs.
func TestQuickCountPositiveIffContains(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		target := randomGraph(rng, 10, 3, 0.3)
		pattern := randomGraph(rng, 5, 3, 0.4)
		return Brute{}.Contains(pattern, target) == bruteContains(pattern, target)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickMonotoneUnderEdgeRemoval: removing an edge from the pattern
// can only make containment easier; adding an edge to the target likewise.
func TestQuickMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		target := randomGraph(rng, 10, 3, 0.35)
		pattern := bfsExtract(rng, target, 2+rng.Intn(5))
		if pattern.NumEdges() == 0 {
			return true
		}
		es := pattern.EdgeList()
		e := es[rng.Intn(len(es))]
		weaker, err := pattern.WithoutEdge(int(e.U), int(e.V))
		if err != nil {
			return false
		}
		for _, algo := range allAlgorithms {
			if algo.Contains(pattern, target) && !algo.Contains(weaker, target) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestGraphQLRefineLevels(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 50; i++ {
		target := randomGraph(rng, 12, 3, 0.3)
		pattern := randomGraph(rng, 6, 3, 0.4)
		want := Brute{}.Contains(pattern, target)
		for _, lv := range []int{1, 2, 5} {
			if got := (GraphQL{RefineLevels: lv}).Contains(pattern, target); got != want {
				t.Fatalf("GQL levels=%d wrong verdict (iter %d)", lv, i)
			}
		}
	}
}

func BenchmarkContains(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	targets := make([]*graph.Graph, 50)
	patterns := make([]*graph.Graph, 50)
	for i := range targets {
		targets[i] = randomGraph(rng, 45, 6, 0.06)
		patterns[i] = bfsExtract(rng, targets[i], 4+rng.Intn(16))
	}
	for _, algo := range allAlgorithms[:3] {
		b.Run(algo.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				k := i % len(targets)
				algo.Contains(patterns[k], targets[k])
			}
		})
	}
}
