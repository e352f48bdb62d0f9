// Package graph implements the labelled undirected graphs that GC+ (the
// EDBT 2017 GraphCache+ system) operates on.
//
// Following §3 of the paper, a graph G = (V, E, l) has vertices V
// identified by dense integer indices, undirected edges E, and a labelling
// function l over the vertices only (edge labels generalize trivially and
// are omitted, as in the paper). Graphs are small (tens to a few hundred
// vertices — the AIDS dataset used in the evaluation averages 45 vertices
// and 47 edges) while datasets hold tens of thousands of them, so the
// representation favours compactness: adjacency lists of int32 kept in
// sorted order.
//
// Graph values are treated as immutable once published to a Dataset or a
// cache; dataset update operations (UA/UR) use the copy-on-write WithEdge
// and WithoutEdge so that answer snapshots taken by the cache remain
// meaningful historical facts.
package graph

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
)

// Label is a vertex label. The evaluation dataset (AIDS) uses atom types;
// the synthetic generator uses small integers with a skewed distribution.
type Label uint32

// Graph is a labelled undirected graph. The zero value is an empty graph.
type Graph struct {
	name   string
	labels []Label
	adj    [][]int32 // adj[v] sorted ascending; both directions stored
	m      int       // number of undirected edges

	// summary memoizes the structural Summary once the graph is published
	// (graphs are immutable after construction; Clone and the copy-on-write
	// edge updates build fresh Graph values, so a stale summary can never
	// be observed).
	summary summaryCell
}

// Name returns the graph's optional name (dataset id, query id, ...).
func (g *Graph) Name() string { return g.name }

// SetName sets the graph's name. Names are metadata and do not take part
// in isomorphism.
func (g *Graph) SetName(n string) { g.name = n }

// NumVertices returns |V|.
func (g *Graph) NumVertices() int { return len(g.labels) }

// NumEdges returns |E| (undirected edges counted once).
func (g *Graph) NumEdges() int { return g.m }

// Label returns the label of vertex v.
func (g *Graph) Label(v int) Label { return g.labels[v] }

// Labels returns the label slice indexed by vertex. The caller must not
// modify it.
func (g *Graph) Labels() []Label { return g.labels }

// Degree returns the number of neighbours of v.
func (g *Graph) Degree(v int) int { return len(g.adj[v]) }

// Neighbors returns the sorted neighbour list of v. The caller must not
// modify it.
func (g *Graph) Neighbors(v int) []int32 { return g.adj[v] }

// HasEdge reports whether the undirected edge {u, v} exists.
func (g *Graph) HasEdge(u, v int) bool {
	if u < 0 || v < 0 || u >= len(g.adj) || v >= len(g.adj) {
		return false
	}
	a := g.adj[u]
	if len(g.adj[v]) < len(a) {
		a, v = g.adj[v], u
	}
	i := sort.Search(len(a), func(i int) bool { return a[i] >= int32(v) })
	return i < len(a) && a[i] == int32(v)
}

// Edge is an undirected edge with U < V.
type Edge struct {
	U, V int32
}

// EdgeList returns all undirected edges with U < V, sorted.
func (g *Graph) EdgeList() []Edge {
	out := make([]Edge, 0, g.m)
	for u := range g.adj {
		for _, v := range g.adj[u] {
			if int32(u) < v {
				out = append(out, Edge{int32(u), v})
			}
		}
	}
	return out
}

// Clone returns a deep copy of g. Each adjacency list gets its own
// slice, so the copy-on-write updates below may mutate them in place; a
// built graph's lists instead share one backing array (see Build) and are
// never written after publication.
func (g *Graph) Clone() *Graph {
	c := &Graph{name: g.name, m: g.m}
	c.labels = append([]Label(nil), g.labels...)
	c.adj = make([][]int32, len(g.adj))
	for v, ns := range g.adj {
		c.adj[v] = append([]int32(nil), ns...)
	}
	return c
}

// WithEdge returns a copy of g with the undirected edge {u, v} added.
// It returns an error if the edge already exists, is a self loop, or an
// endpoint is out of range. This is the dataset UA (update by edge
// addition) primitive.
func (g *Graph) WithEdge(u, v int) (*Graph, error) {
	if err := g.checkEndpoints(u, v); err != nil {
		return nil, err
	}
	if g.HasEdge(u, v) {
		return nil, fmt.Errorf("graph: edge {%d,%d} already present", u, v)
	}
	c := g.Clone()
	c.insertArc(u, v)
	c.insertArc(v, u)
	c.m++
	return c, nil
}

// WithoutEdge returns a copy of g with the undirected edge {u, v} removed.
// It returns an error if the edge does not exist. This is the dataset UR
// (update by edge removal) primitive.
func (g *Graph) WithoutEdge(u, v int) (*Graph, error) {
	if err := g.checkEndpoints(u, v); err != nil {
		return nil, err
	}
	if !g.HasEdge(u, v) {
		return nil, fmt.Errorf("graph: edge {%d,%d} not present", u, v)
	}
	c := g.Clone()
	c.removeArc(u, v)
	c.removeArc(v, u)
	c.m--
	return c, nil
}

func (g *Graph) checkEndpoints(u, v int) error {
	if u < 0 || v < 0 || u >= len(g.labels) || v >= len(g.labels) {
		return fmt.Errorf("graph: endpoint out of range: {%d,%d} with %d vertices", u, v, len(g.labels))
	}
	if u == v {
		return errors.New("graph: self loops are not allowed")
	}
	return nil
}

// insertArc and removeArc mutate adjacency in place: only call them on a
// fresh Clone.
func (g *Graph) insertArc(u, v int) {
	a := g.adj[u]
	i := sort.Search(len(a), func(i int) bool { return a[i] >= int32(v) })
	a = append(a, 0)
	copy(a[i+1:], a[i:])
	a[i] = int32(v)
	g.adj[u] = a
}

func (g *Graph) removeArc(u, v int) {
	a := g.adj[u]
	i := sort.Search(len(a), func(i int) bool { return a[i] >= int32(v) })
	if i < len(a) && a[i] == int32(v) {
		g.adj[u] = append(a[:i], a[i+1:]...)
	}
}

// LabelCounts returns the multiset of vertex labels as a map.
func (g *Graph) LabelCounts() map[Label]int {
	c := make(map[Label]int, 8)
	for _, l := range g.labels {
		c[l]++
	}
	return c
}

// MaxDegree returns the maximum vertex degree, or 0 for the empty graph.
func (g *Graph) MaxDegree() int {
	d := 0
	for _, ns := range g.adj {
		if len(ns) > d {
			d = len(ns)
		}
	}
	return d
}

// Connected reports whether g is connected. The empty graph counts as
// connected; a single vertex does too.
func (g *Graph) Connected() bool {
	n := len(g.labels)
	if n <= 1 {
		return true
	}
	seen := make([]bool, n)
	stack := []int32{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range g.adj[v] {
			if !seen[w] {
				seen[w] = true
				count++
				stack = append(stack, w)
			}
		}
	}
	return count == n
}

// Validate checks internal invariants: sorted adjacency, symmetry, no self
// loops or duplicates, edge count consistency. It is used by the codec and
// by tests.
func (g *Graph) Validate() error {
	arcs := 0
	for u, ns := range g.adj {
		for i, v := range ns {
			if v < 0 || int(v) >= len(g.labels) {
				return fmt.Errorf("graph %q: vertex %d has out-of-range neighbour %d", g.name, u, v)
			}
			if int(v) == u {
				return fmt.Errorf("graph %q: self loop at %d", g.name, u)
			}
			if i > 0 && ns[i-1] >= v {
				return fmt.Errorf("graph %q: adjacency of %d not strictly sorted", g.name, u)
			}
			if !g.HasEdge(int(v), u) {
				return fmt.Errorf("graph %q: asymmetric edge {%d,%d}", g.name, u, v)
			}
		}
		arcs += len(ns)
	}
	if arcs != 2*g.m {
		return fmt.Errorf("graph %q: edge count %d inconsistent with %d arcs", g.name, g.m, arcs)
	}
	return nil
}

// String summarizes the graph for debugging.
func (g *Graph) String() string {
	return fmt.Sprintf("Graph(%q |V|=%d |E|=%d)", g.name, len(g.labels), g.m)
}

// A Builder incrementally constructs a Graph. It tolerates edges inserted
// in any order and duplicates are rejected at Build time.
type Builder struct {
	labels []Label
	edges  []Edge
	name   string
	err    error // first endpoint AddEdge could not narrow to int32
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder { return &Builder{} }

// SetName sets the name of the graph under construction.
func (b *Builder) SetName(n string) *Builder { b.name = n; return b }

// AddVertex appends a vertex with the given label and returns its index.
func (b *Builder) AddVertex(l Label) int {
	b.labels = append(b.labels, l)
	return len(b.labels) - 1
}

// NumVertices returns the number of vertices added so far.
func (b *Builder) NumVertices() int { return len(b.labels) }

// AddEdge records the undirected edge {u, v}. Validation happens in Build;
// an endpoint that does not even fit an int32 is remembered here, before
// narrowing could wrap it onto a real vertex.
func (b *Builder) AddEdge(u, v int) *Builder {
	if u > v {
		u, v = v, u
	}
	if u < 0 || v > math.MaxInt32 {
		if b.err == nil {
			b.err = fmt.Errorf("graph: edge {%d,%d} endpoint out of range", u, v)
		}
		return b
	}
	b.edges = append(b.edges, Edge{int32(u), int32(v)})
	return b
}

// reset empties b for the next graph, keeping its buffers.
func (b *Builder) reset(name string) {
	*b = Builder{labels: b.labels[:0], edges: b.edges[:0], name: name}
}

// Build materializes the graph, validating endpoints, rejecting self loops
// and duplicate edges. All adjacency lists share one backing array, each
// capped at its own length.
func (b *Builder) Build() (*Graph, error) {
	if b.err != nil {
		return nil, b.err
	}
	slices.SortFunc(b.edges, func(x, y Edge) int {
		if c := cmp.Compare(x.U, y.U); c != 0 {
			return c
		}
		return cmp.Compare(x.V, y.V)
	})
	n := len(b.labels)
	back := make([]int32, 2*len(b.edges))
	adj := make([][]int32, n)
	// First pass: validate and count degrees in the lists' lengths.
	for v := range adj {
		adj[v] = back[:0]
	}
	for i, e := range b.edges {
		if i > 0 && e == b.edges[i-1] {
			return nil, fmt.Errorf("graph: duplicate edge {%d,%d}", e.U, e.V)
		}
		if int(e.U) < 0 || int(e.V) >= n {
			return nil, fmt.Errorf("graph: edge {%d,%d} endpoint out of range", e.U, e.V)
		}
		if e.U == e.V {
			return nil, fmt.Errorf("graph: self loop at %d", e.U)
		}
		adj[e.U] = adj[e.U][:len(adj[e.U])+1]
		adj[e.V] = adj[e.V][:len(adj[e.V])+1]
	}
	off := 0
	for v, ns := range adj {
		adj[v] = back[off : off : off+len(ns)]
		off += len(ns)
	}
	// Second pass: with edges sorted by (U, V), vertex x receives its
	// smaller neighbours (edges {w,x}, ascending w) before its larger
	// ones (edges {x,y}, ascending y), so every list is born sorted.
	for _, e := range b.edges {
		adj[e.U] = append(adj[e.U], e.V)
		adj[e.V] = append(adj[e.V], e.U)
	}
	g := &Graph{name: b.name, labels: append([]Label(nil), b.labels...), adj: adj, m: len(b.edges)}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// MustBuild is Build that panics on error; for tests and literals.
func (b *Builder) MustBuild() *Graph {
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}
