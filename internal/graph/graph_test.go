package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBuilderBasic(t *testing.T) {
	b := NewBuilder().SetName("g0")
	a := b.AddVertex(1)
	c := b.AddVertex(2)
	d := b.AddVertex(1)
	b.AddEdge(a, c).AddEdge(c, d)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.Name() != "g0" {
		t.Errorf("Name = %q", g.Name())
	}
	if g.NumVertices() != 3 || g.NumEdges() != 2 {
		t.Fatalf("got |V|=%d |E|=%d", g.NumVertices(), g.NumEdges())
	}
	if !g.HasEdge(a, c) || !g.HasEdge(c, a) {
		t.Error("edge {a,c} missing")
	}
	if g.HasEdge(a, d) {
		t.Error("phantom edge {a,d}")
	}
	if g.Label(c) != 2 {
		t.Errorf("Label(c) = %d", g.Label(c))
	}
	if err := g.Validate(); err != nil {
		t.Error(err)
	}
}

func TestBuilderRejectsDuplicateEdge(t *testing.T) {
	b := NewBuilder()
	b.AddVertex(0)
	b.AddVertex(0)
	b.AddEdge(0, 1).AddEdge(1, 0)
	if _, err := b.Build(); err == nil {
		t.Fatal("duplicate edge accepted")
	}
}

func TestBuilderRejectsSelfLoop(t *testing.T) {
	b := NewBuilder()
	b.AddVertex(0)
	b.AddEdge(0, 0)
	if _, err := b.Build(); err == nil {
		t.Fatal("self loop accepted")
	}
}

func TestBuilderRejectsOutOfRange(t *testing.T) {
	b := NewBuilder()
	b.AddVertex(0)
	b.AddEdge(0, 5)
	if _, err := b.Build(); err == nil {
		t.Fatal("out-of-range endpoint accepted")
	}
}

func TestWithEdgeWithoutEdge(t *testing.T) {
	g := Path(1, 2, 3) // 0-1-2
	g2, err := g.WithEdge(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !g2.HasEdge(0, 2) || g2.NumEdges() != 3 {
		t.Fatal("WithEdge did not add edge")
	}
	if g.HasEdge(0, 2) {
		t.Fatal("WithEdge mutated the receiver")
	}
	g3, err := g2.WithoutEdge(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if g3.HasEdge(0, 2) || g3.NumEdges() != 2 {
		t.Fatal("WithoutEdge did not remove edge")
	}
	if !g2.HasEdge(0, 2) {
		t.Fatal("WithoutEdge mutated the receiver")
	}
	if err := g2.Validate(); err != nil {
		t.Error(err)
	}
	if err := g3.Validate(); err != nil {
		t.Error(err)
	}
}

func TestWithEdgeErrors(t *testing.T) {
	g := Path(1, 2)
	if _, err := g.WithEdge(0, 1); err == nil {
		t.Error("adding existing edge should fail")
	}
	if _, err := g.WithEdge(0, 0); err == nil {
		t.Error("self loop should fail")
	}
	if _, err := g.WithEdge(0, 9); err == nil {
		t.Error("out-of-range should fail")
	}
	if _, err := g.WithoutEdge(0, 9); err == nil {
		t.Error("removing out-of-range should fail")
	}
	if _, err := Path(1, 2, 3).WithoutEdge(0, 2); err == nil {
		t.Error("removing absent edge should fail")
	}
}

func TestEdgeList(t *testing.T) {
	g := Cycle(1, 2, 3)
	es := g.EdgeList()
	if len(es) != 3 {
		t.Fatalf("EdgeList len = %d", len(es))
	}
	for _, e := range es {
		if e.U >= e.V {
			t.Errorf("edge %v not normalized", e)
		}
	}
}

func TestLabelCounts(t *testing.T) {
	g := Path(1, 1, 2, 7)
	c := g.LabelCounts()
	if c[1] != 2 || c[2] != 1 || c[7] != 1 {
		t.Fatalf("LabelCounts = %v", c)
	}
}

func TestConnected(t *testing.T) {
	if !Path(1, 2, 3).Connected() {
		t.Error("path should be connected")
	}
	if !Single(5).Connected() {
		t.Error("single vertex should be connected")
	}
	b := NewBuilder()
	b.AddVertex(1)
	b.AddVertex(2)
	g := b.MustBuild()
	if g.Connected() {
		t.Error("two isolated vertices should not be connected")
	}
	var empty Graph
	if !empty.Connected() {
		t.Error("empty graph counts as connected")
	}
}

func TestMaxDegree(t *testing.T) {
	if d := Star(0, 1, 2, 3, 4).MaxDegree(); d != 4 {
		t.Fatalf("MaxDegree = %d, want 4", d)
	}
	var empty Graph
	if empty.MaxDegree() != 0 {
		t.Fatal("empty MaxDegree should be 0")
	}
}

func TestCloneIndependence(t *testing.T) {
	g := Path(1, 2, 3)
	c := g.Clone()
	c2, err := c.WithEdge(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	_ = c2
	if g.NumEdges() != 2 {
		t.Fatal("clone mutation leaked")
	}
}

func TestShapes(t *testing.T) {
	if g := Clique(1, 2, 3, 4); g.NumEdges() != 6 || g.MaxDegree() != 3 {
		t.Errorf("Clique(4): %v", g)
	}
	if g := Cycle(1, 2); g.NumEdges() != 1 {
		t.Errorf("degenerate cycle: %v", g)
	}
	if g := Star(9); g.NumVertices() != 1 || g.NumEdges() != 0 {
		t.Errorf("leafless star: %v", g)
	}
}

// randomGraph builds a random valid graph for property tests.
func randomGraph(rng *rand.Rand, maxN int) *Graph {
	n := 1 + rng.Intn(maxN)
	b := NewBuilder()
	for i := 0; i < n; i++ {
		b.AddVertex(Label(rng.Intn(5)))
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < 0.25 {
				b.AddEdge(u, v)
			}
		}
	}
	return b.MustBuild()
}

func TestQuickWithEdgeRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 12)
		// pick an absent pair if any
		n := g.NumVertices()
		for tries := 0; tries < 32 && n >= 2; tries++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v || g.HasEdge(u, v) {
				continue
			}
			g2, err := g.WithEdge(u, v)
			if err != nil {
				return false
			}
			g3, err := g2.WithoutEdge(u, v)
			if err != nil {
				return false
			}
			if g3.NumEdges() != g.NumEdges() || g3.Validate() != nil || g2.Validate() != nil {
				return false
			}
			// adjacency content equal to original
			for w := 0; w < n; w++ {
				if len(g3.Neighbors(w)) != len(g.Neighbors(w)) {
					return false
				}
				for i, x := range g3.Neighbors(w) {
					if g.Neighbors(w)[i] != x {
						return false
					}
				}
			}
			return true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	g := Path(1, 2, 3)
	g.adj[0] = append(g.adj[0], 2) // asymmetric arc
	if err := g.Validate(); err == nil {
		t.Fatal("Validate missed asymmetric arc")
	}
	h := Path(1, 2)
	h.m = 42
	if err := h.Validate(); err == nil {
		t.Fatal("Validate missed bad edge count")
	}
}

// Degrees returns the degree sequence sorted descending. The caller must
// not modify it.
func (s *Summary) Degrees() []int32 { return s.degrees }
