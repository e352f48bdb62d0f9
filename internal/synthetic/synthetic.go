// Package synthetic generates AIDS-like molecule datasets.
//
// The paper evaluates GC+ on the NCI AIDS Antiviral Screen dataset:
// 40,000 labelled graphs averaging ≈45 vertices (σ=22, max 245) and ≈47
// edges (σ=23, max 250), with ~62 atom-type labels whose frequencies are
// heavily skewed (carbon dominates, then oxygen and nitrogen). The
// dataset itself is not redistributable here, so this package synthesizes
// graphs reproducing the properties GC+'s behaviour actually depends on:
//
//   - the vertex-count distribution (clipped normal with the published
//     mean/σ/max), which drives sub-iso cost variance and thus the PINC
//     cost model and Figure 6's absolute times;
//   - sparsity: |E| ≈ 1.05·|V| with a molecule-like degree cap (valence),
//     keeping graphs connected, mostly tree-like with a few rings;
//   - the skewed label distribution (Zipf), which makes label-based
//     filters selective — the property underlying both the feature
//     prefilter and Method M's pruning rules.
//
// docs/paper.md documents this substitution and reports the generator's
// moments next to AIDS's.
package synthetic

import (
	"fmt"
	"math"
	"math/rand"

	"gcplus/internal/graph"
	"gcplus/internal/randx"
)

// Config parameterizes the generator. The zero value is not valid; start
// from Default().
//
// Graphs are assembled from a library of recurring *motifs* (small
// connected fragments standing in for rings, chains and functional
// groups). Motif recurrence is what gives real molecule datasets their
// cache-friendliness: queries extracted from different graphs still
// contain one another because they cover the same fragments. A generator
// without shared motifs yields structurally idiosyncratic graphs and
// starves GC+ of subgraph/supergraph hits — unlike AIDS.
type Config struct {
	// NumGraphs is the dataset size (paper: 40,000).
	NumGraphs int
	// MeanVertices and StdVertices shape the clipped-normal vertex-count
	// distribution (paper: 45 and 22).
	MeanVertices float64
	StdVertices  float64
	// MinVertices and MaxVertices clip the distribution (4 and 245).
	MinVertices int
	MaxVertices int
	// EdgeFactor targets |E| ≈ EdgeFactor·|V| (AIDS: 47/45 ≈ 1.045).
	EdgeFactor float64
	// MaxDegree caps vertex degree, mimicking atom valence (default 4).
	MaxDegree int
	// NumLabels is the alphabet size (AIDS: 62 atom types).
	NumLabels int
	// LabelAlpha is the Zipf exponent of the label distribution; the
	// default 2.5 makes the top label cover ≈75% of vertices, matching
	// AIDS's carbon dominance. Selectivity then comes from structure
	// (ring sizes, branching, rarer hetero-labels), as in AIDS.
	LabelAlpha float64
	// MotifCount is the size of the shared fragment library (0 disables
	// motif structure and falls back to purely random assembly).
	MotifCount int
	// MotifMinVertices and MotifMaxVertices bound fragment sizes.
	MotifMinVertices int
	MotifMaxVertices int
	// MotifAlpha is the Zipf exponent of motif popularity: a few
	// fragments (benzene-like) appear in most graphs.
	MotifAlpha float64
	// Seed drives the generator deterministically.
	Seed int64
}

// Default returns the AIDS-calibrated configuration at full paper scale.
// Benchmarks typically shrink NumGraphs while keeping the per-graph
// parameters (see the bench package's scaled configs).
func Default() Config {
	return Config{
		NumGraphs:        40000,
		MeanVertices:     45,
		StdVertices:      22,
		MinVertices:      4,
		MaxVertices:      245,
		EdgeFactor:       1.045,
		MaxDegree:        4,
		NumLabels:        62,
		LabelAlpha:       2.5,
		MotifCount:       16,
		MotifMinVertices: 3,
		MotifMaxVertices: 10,
		MotifAlpha:       1.4,
		Seed:             1,
	}
}

// WithGraphs returns a copy of the config scaled to n graphs.
func (c Config) WithGraphs(n int) Config {
	c.NumGraphs = n
	return c
}

func (c Config) validate() error {
	if c.NumGraphs <= 0 {
		return fmt.Errorf("synthetic: NumGraphs must be positive, got %d", c.NumGraphs)
	}
	if c.MinVertices < 1 || c.MaxVertices < c.MinVertices {
		return fmt.Errorf("synthetic: bad vertex bounds [%d,%d]", c.MinVertices, c.MaxVertices)
	}
	if c.NumLabels <= 0 {
		return fmt.Errorf("synthetic: NumLabels must be positive, got %d", c.NumLabels)
	}
	if c.MaxDegree < 2 {
		return fmt.Errorf("synthetic: MaxDegree must be ≥ 2, got %d", c.MaxDegree)
	}
	if c.EdgeFactor < 1.0-1e-9 {
		return fmt.Errorf("synthetic: EdgeFactor must be ≥ 1 for connected graphs, got %g", c.EdgeFactor)
	}
	if c.MotifCount > 0 {
		if c.MotifMinVertices < 2 || c.MotifMaxVertices < c.MotifMinVertices {
			return fmt.Errorf("synthetic: bad motif size bounds [%d,%d]", c.MotifMinVertices, c.MotifMaxVertices)
		}
		if c.MotifAlpha <= 0 {
			return fmt.Errorf("synthetic: MotifAlpha must be positive, got %g", c.MotifAlpha)
		}
	}
	return nil
}

// Generate produces the dataset. The same config always yields the same
// graphs.
func Generate(cfg Config) ([]*graph.Graph, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	rng := randx.New(cfg.Seed)
	labelDist := randx.MustZipf(cfg.NumLabels, cfg.LabelAlpha)
	lib := buildMotifLibrary(rng, labelDist, cfg)
	out := make([]*graph.Graph, cfg.NumGraphs)
	for i := range out {
		n := clampedNormal(rng, cfg.MeanVertices, cfg.StdVertices, cfg.MinVertices, cfg.MaxVertices)
		var g *graph.Graph
		if lib != nil {
			g = assembleFromMotifs(rng, lib, labelDist, n, cfg)
		} else {
			g = generateOne(rng, labelDist, n, cfg)
		}
		g.SetName(fmt.Sprintf("G%d", i))
		out[i] = g
	}
	return out, nil
}

// motif is one library fragment: labels plus internal edges.
type motif struct {
	labels []graph.Label
	edges  [][2]int
}

// motifLibrary pairs fragments with their Zipf popularity sampler.
type motifLibrary struct {
	motifs []motif
	pop    *randx.Zipf
}

// buildMotifLibrary creates the shared fragment library: small connected
// degree-capped graphs (paths, rings and branched rings) with labels from
// the dataset's label distribution.
func buildMotifLibrary(rng *rand.Rand, labels *randx.Zipf, cfg Config) *motifLibrary {
	if cfg.MotifCount <= 0 {
		return nil
	}
	lib := &motifLibrary{
		motifs: make([]motif, cfg.MotifCount),
		pop:    randx.MustZipf(cfg.MotifCount, cfg.MotifAlpha),
	}
	span := cfg.MotifMaxVertices - cfg.MotifMinVertices + 1
	for i := range lib.motifs {
		n := cfg.MotifMinVertices + rng.Intn(span)
		m := motif{labels: make([]graph.Label, n)}
		for v := range m.labels {
			m.labels[v] = graph.Label(labels.Sample(rng))
		}
		// backbone path
		for v := 1; v < n; v++ {
			m.edges = append(m.edges, [2]int{v - 1, v})
		}
		// close some motifs into rings (benzene-like) and branch a few;
		// the probabilities are tuned so assembled graphs land at the
		// AIDS edge ratio |E| ≈ 1.045·|V| without a trimming pass.
		if n >= 3 && rng.Float64() < 0.4 {
			m.edges = append(m.edges, [2]int{n - 1, 0})
		}
		if n >= 5 && rng.Float64() < 0.1 {
			m.edges = append(m.edges, [2]int{0, n / 2})
		}
		lib.motifs[i] = m
	}
	return lib
}

// assembleFromMotifs builds one dataset graph by chaining Zipf-popular
// motifs with single linker edges until the vertex target is reached,
// then adds a few ring-closing extras, all under the degree cap.
func assembleFromMotifs(rng *rand.Rand, lib *motifLibrary, labels *randx.Zipf, n int, cfg Config) *graph.Graph {
	b := graph.NewBuilder()
	deg := make([]int, 0, n+cfg.MotifMaxVertices)
	var edges []pair
	addEdge := func(u, v int) bool {
		if u == v || deg[u] >= cfg.MaxDegree || deg[v] >= cfg.MaxDegree {
			return false
		}
		edges = append(edges, pair{u, v})
		deg[u]++
		deg[v]++
		return true
	}
	prevBase := -1
	for b.NumVertices() < n {
		m := lib.motifs[lib.pop.Sample(rng)]
		base := b.NumVertices()
		for _, l := range m.labels {
			// Occasional label substitution per instance: recurring
			// skeletons with sporadic hetero-atoms, which is what gives
			// AIDS both its query repeats and its rare-label selectivity.
			if rng.Float64() < 0.08 {
				l = graph.Label(labels.Sample(rng))
			}
			b.AddVertex(l)
			deg = append(deg, 0)
		}
		for _, e := range m.edges {
			addEdge(base+e[0], base+e[1])
		}
		if prevBase >= 0 {
			// Linker edge between the previous fragment and this one,
			// from any two endpoints with spare degree. The degree cap
			// (≥2) and the fragments' path/ring shapes (max internal
			// degree 3) guarantee spare endpoints exist.
			linked := false
			for tries := 0; tries < 8 && !linked; tries++ {
				linked = addEdge(prevBase+rng.Intn(base-prevBase), base+rng.Intn(len(m.labels)))
			}
			for u := prevBase; u < base && !linked; u++ {
				for v := base; v < b.NumVertices() && !linked; v++ {
					linked = addEdge(u, v)
				}
			}
		}
		prevBase = base
	}
	// occasional cross-fragment ring closure up to the edge target
	nv := b.NumVertices()
	target := int(math.Round(cfg.EdgeFactor * float64(nv)))
	for tries := 0; len(edges) < target && tries < 10*nv; tries++ {
		u := rng.Intn(nv)
		v := rng.Intn(nv)
		if u != v && !hasEdge(edges, u, v) {
			addEdge(u, v)
		}
	}
	for _, e := range edges {
		b.AddEdge(e.u, e.v)
	}
	return b.MustBuild()
}

// pair is an endpoint pair used during assembly.
type pair struct{ u, v int }

func hasEdge(edges []pair, u, v int) bool {
	for _, e := range edges {
		if (e.u == u && e.v == v) || (e.u == v && e.v == u) {
			return true
		}
	}
	return false
}

// MustGenerate is Generate that panics on config errors.
func MustGenerate(cfg Config) []*graph.Graph {
	gs, err := Generate(cfg)
	if err != nil {
		panic(err)
	}
	return gs
}

func clampedNormal(rng *rand.Rand, mean, std float64, lo, hi int) int {
	n := int(math.Round(mean + std*rng.NormFloat64()))
	if n < lo {
		n = lo
	}
	if n > hi {
		n = hi
	}
	return n
}

// generateOne builds one connected molecule-like graph: a degree-capped
// random spanning tree (attaching each new vertex near the frontier,
// which yields chain- and branch-like shapes instead of stars) plus
// ring-closing extra edges up to the edge target.
func generateOne(rng *rand.Rand, labels *randx.Zipf, n int, cfg Config) *graph.Graph {
	b := graph.NewBuilder()
	for i := 0; i < n; i++ {
		b.AddVertex(graph.Label(labels.Sample(rng)))
	}
	deg := make([]int, n)
	type edge struct{ u, v int }
	var edges []edge
	present := make(map[[2]int]bool, n*2)
	addEdge := func(u, v int) bool {
		if u == v || deg[u] >= cfg.MaxDegree || deg[v] >= cfg.MaxDegree {
			return false
		}
		if u > v {
			u, v = v, u
		}
		key := [2]int{u, v}
		if present[key] {
			return false
		}
		present[key] = true
		edges = append(edges, edge{u, v})
		deg[u]++
		deg[v]++
		return true
	}

	// Spanning tree: attach vertex i to a vertex drawn from a recency-
	// biased window of the already attached prefix, so long chains with
	// branches emerge (molecule skeletons) rather than hubs.
	for i := 1; i < n; i++ {
		attached := false
		for tries := 0; tries < 8 && !attached; tries++ {
			lo := i - 1 - rng.Intn(min(i, 6))
			if lo < 0 {
				lo = 0
			}
			attached = addEdge(i, lo+rng.Intn(i-lo))
		}
		for j := i - 1; j >= 0 && !attached; j-- {
			attached = addEdge(i, j) // fall back to any degree-feasible vertex
		}
		if !attached {
			// All earlier vertices saturated (only possible for tiny
			// MaxDegree); relax the cap for this one edge to preserve
			// connectivity.
			deg[i-1] = 0
			addEdge(i, i-1)
			deg[i-1] = cfg.MaxDegree
		}
	}

	// Ring-closing extras up to the edge target.
	target := int(math.Round(cfg.EdgeFactor * float64(n)))
	if max := n * (n - 1) / 2; target > max {
		target = max
	}
	for tries := 0; len(edges) < target && tries < 20*n; tries++ {
		u := rng.Intn(n)
		// prefer short rings: candidates within a small index window
		v := u + 2 + rng.Intn(5)
		if v >= n {
			v = rng.Intn(n)
		}
		addEdge(u, v)
	}

	for _, e := range edges {
		b.AddEdge(e.u, e.v)
	}
	return b.MustBuild()
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
