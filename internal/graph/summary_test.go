package graph_test

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"gcplus/internal/graph"
)

func randomTestGraph(rng *rand.Rand, maxN, labels int, p float64) *graph.Graph {
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

func TestSummaryMatchesGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 50; i++ {
		g := randomTestGraph(rng, 20, 4, 0.3)
		if i%5 == 4 {
			// dense: degrees beyond the degree sort's stack buffer
			g = randomTestGraph(rng, 40, 4, 0.9)
		}
		s := g.Summary()
		if s.Vertices() != g.NumVertices() || s.Edges() != g.NumEdges() || s.MaxDegree() != g.MaxDegree() {
			t.Fatalf("summary size fields disagree with graph: %v", g)
		}
		// label counts agree with the map-based LabelCounts
		lc := g.LabelCounts()
		if len(s.LabelCounts()) != len(lc) {
			t.Fatalf("label count kinds %d != %d", len(s.LabelCounts()), len(lc))
		}
		for k, c := range s.LabelCounts() {
			if int(c.Count) != lc[c.Label] {
				t.Fatalf("label %d count %d != %d", c.Label, c.Count, lc[c.Label])
			}
			if s.LabelFreq(c.Label) != c.Count {
				t.Fatalf("LabelFreq(%d) inconsistent", c.Label)
			}
			if k > 0 && s.LabelCounts()[k-1].Label >= c.Label {
				t.Fatal("label counts not strictly sorted")
			}
		}
		if s.LabelFreq(graph.Label(999)) != 0 {
			t.Fatal("absent label should have frequency 0")
		}
		// ByLabel: every vertex once, in LabelCounts' runs, ascending
		// within a run
		byLabel := s.ByLabel()
		if len(byLabel) != g.NumVertices() {
			t.Fatalf("ByLabel has %d vertices, graph %d", len(byLabel), g.NumVertices())
		}
		k := 0
		for _, c := range s.LabelCounts() {
			for i, v := range byLabel[k : k+int(c.Count)] {
				if g.Label(int(v)) != c.Label || i > 0 && byLabel[k+i-1] >= v {
					t.Fatalf("ByLabel run of label %d out of order: %v", c.Label, byLabel)
				}
			}
			// LabelRun is that run
			if !slices.Equal(s.LabelRun(c.Label), byLabel[k:k+int(c.Count)]) {
				t.Fatalf("LabelRun(%d) = %v, ByLabel run %v", c.Label, s.LabelRun(c.Label), byLabel[k:k+int(c.Count)])
			}
			k += int(c.Count)
		}
		if s.LabelRun(graph.Label(999)) != nil {
			t.Fatal("absent label should have an empty run")
		}
		// degree sequence: descending, and a permutation of the degrees
		degs := make([]int, g.NumVertices())
		for v := range degs {
			degs[v] = g.Degree(v)
		}
		sort.Sort(sort.Reverse(sort.IntSlice(degs)))
		for k, d := range s.Degrees() {
			if int(d) != degs[k] {
				t.Fatalf("degree sequence mismatch at %d: %d != %d", k, d, degs[k])
			}
		}
		// per-vertex profiles: sorted multiset of neighbour labels
		for v := 0; v < g.NumVertices(); v++ {
			prof := s.Profile(v)
			if len(prof) != g.Degree(v) {
				t.Fatalf("profile of %d has %d entries, degree %d", v, len(prof), g.Degree(v))
			}
			want := make([]graph.Label, 0, g.Degree(v))
			for _, w := range g.Neighbors(v) {
				want = append(want, g.Label(int(w)))
			}
			sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
			for k, l := range prof {
				if l != want[k] {
					t.Fatalf("profile of %d mismatch at %d", v, k)
				}
			}
		}
	}
}

func TestSummaryMemoized(t *testing.T) {
	g := graph.Path(1, 2, 3)
	if g.Summary() != g.Summary() {
		t.Fatal("Summary not memoized")
	}
	// copy-on-write updates must carry fresh summaries
	g2, err := g.WithEdge(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if g2.Summary() == g.Summary() {
		t.Fatal("updated graph shares the stale summary")
	}
	if g2.Summary().Edges() != g.Summary().Edges()+1 {
		t.Fatal("updated summary has wrong edge count")
	}
	if c := g.Clone(); c.Summary() == g.Summary() {
		t.Fatal("clone shares the memoized summary pointer")
	}
}

// TestSummarySubsumedBy checks the necessary-condition direction (an
// actual subgraph's summary is always subsumed) and a few definite
// rejections.
func TestSummarySubsumedBy(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 100; i++ {
		g := randomTestGraph(rng, 16, 3, 0.3)
		// build an induced-ish subgraph by deleting edges/vertices via the
		// builder: take a random subset of vertices and the edges between
		// them.
		keep := make([]int, 0, g.NumVertices())
		idx := make(map[int]int)
		b := graph.NewBuilder()
		for v := 0; v < g.NumVertices(); v++ {
			if rng.Intn(2) == 0 {
				idx[v] = b.AddVertex(g.Label(v))
				keep = append(keep, v)
			}
		}
		if len(keep) == 0 {
			continue
		}
		for _, e := range g.EdgeList() {
			if iu, ok := idx[int(e.U)]; ok {
				if iv, ok := idx[int(e.V)]; ok {
					b.AddEdge(iu, iv)
				}
			}
		}
		sub := b.MustBuild()
		if !sub.Summary().SubsumedBy(g.Summary()) {
			t.Fatalf("subgraph summary not subsumed (iter %d)", i)
		}
	}
	// definite rejections
	if graph.Path(1, 1).Summary().SubsumedBy(graph.Path(1, 2).Summary()) {
		t.Fatal("label multiset violation accepted")
	}
	if graph.Star(1, 2, 2, 2).Summary().SubsumedBy(graph.Path(2, 1, 2, 2).Summary()) {
		t.Fatal("degree violation accepted")
	}
	if graph.Path(1, 2, 1).Summary().SubsumedBy(graph.Path(1, 2).Summary()) {
		t.Fatal("size violation accepted")
	}
}
