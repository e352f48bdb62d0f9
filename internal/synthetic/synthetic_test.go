package synthetic

import (
	"math"
	"testing"

	"gcplus/internal/graph"
	"gcplus/internal/stats"
)

func smallConfig() Config {
	c := Default()
	c.NumGraphs = 400
	return c
}

func TestValidation(t *testing.T) {
	bad := []func(c *Config){
		func(c *Config) { c.NumGraphs = 0 },
		func(c *Config) { c.MinVertices = 0 },
		func(c *Config) { c.MaxVertices = c.MinVertices - 1 },
		func(c *Config) { c.NumLabels = 0 },
		func(c *Config) { c.MaxDegree = 1 },
		func(c *Config) { c.EdgeFactor = 0.5 },
	}
	for i, mutate := range bad {
		c := smallConfig()
		mutate(&c)
		if _, err := Generate(c); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestGenerateBasics(t *testing.T) {
	cfg := smallConfig()
	gs, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(gs) != cfg.NumGraphs {
		t.Fatalf("generated %d graphs", len(gs))
	}
	for i, g := range gs {
		if err := g.Validate(); err != nil {
			t.Fatalf("graph %d invalid: %v", i, err)
		}
		if !g.Connected() {
			t.Fatalf("graph %d disconnected", i)
		}
		if g.NumVertices() < cfg.MinVertices || g.NumVertices() > cfg.MaxVertices {
			t.Fatalf("graph %d has %d vertices", i, g.NumVertices())
		}
		if g.MaxDegree() > cfg.MaxDegree {
			t.Fatalf("graph %d exceeds degree cap: %d", i, g.MaxDegree())
		}
		if g.Name() == "" {
			t.Fatalf("graph %d unnamed", i)
		}
	}
}

func TestMomentsMatchAIDS(t *testing.T) {
	cfg := Default()
	cfg.NumGraphs = 3000
	gs, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var vs, es stats.Running
	for _, g := range gs {
		vs.Add(float64(g.NumVertices()))
		es.Add(float64(g.NumEdges()))
	}
	// Published AIDS: |V| mean 45 σ 22, |E| mean 47 σ 23. Clipping at 4
	// shifts the sample mean slightly upward; allow a loose band.
	if vs.Mean() < 40 || vs.Mean() > 52 {
		t.Errorf("mean |V| = %.1f, want ≈45", vs.Mean())
	}
	if vs.Std() < 16 || vs.Std() > 26 {
		t.Errorf("σ|V| = %.1f, want ≈22", vs.Std())
	}
	ratio := es.Mean() / vs.Mean()
	if math.Abs(ratio-cfg.EdgeFactor) > 0.08 {
		t.Errorf("|E|/|V| = %.3f, want ≈%.3f", ratio, cfg.EdgeFactor)
	}
}

func TestLabelSkew(t *testing.T) {
	cfg := smallConfig()
	gs := MustGenerate(cfg)
	counts := map[graph.Label]int{}
	total := 0
	for _, g := range gs {
		for _, l := range g.Labels() {
			counts[l]++
			total++
		}
	}
	top := 0
	for _, c := range counts {
		if c > top {
			top = c
		}
	}
	share := float64(top) / float64(total)
	// carbon-like dominance without drowning selectivity (see
	// docs/paper.md): the top label covers a large plurality
	if share < 0.25 || share > 0.8 {
		t.Errorf("top label share = %.2f, want 0.25–0.8", share)
	}
	if len(counts) < 10 {
		t.Errorf("only %d distinct labels in sample", len(counts))
	}
}

func TestDeterminism(t *testing.T) {
	a := MustGenerate(smallConfig())
	b := MustGenerate(smallConfig())
	if len(a) != len(b) {
		t.Fatal("lengths differ")
	}
	for i := range a {
		if a[i].NumVertices() != b[i].NumVertices() || a[i].NumEdges() != b[i].NumEdges() {
			t.Fatalf("graph %d differs across runs", i)
		}
		for v := 0; v < a[i].NumVertices(); v++ {
			if a[i].Label(v) != b[i].Label(v) {
				t.Fatalf("graph %d label %d differs", i, v)
			}
		}
	}
	c := smallConfig()
	c.Seed = 999
	other := MustGenerate(c)
	same := true
	for i := range a {
		if a[i].NumVertices() != other[i].NumVertices() || a[i].NumEdges() != other[i].NumEdges() {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical datasets")
	}
}

func TestWithGraphs(t *testing.T) {
	c := Default().WithGraphs(7)
	if c.NumGraphs != 7 {
		t.Fatal("WithGraphs failed")
	}
	if len(MustGenerate(c)) != 7 {
		t.Fatal("scaled generation failed")
	}
}

func TestMustGeneratePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustGenerate should panic on invalid config")
		}
	}()
	MustGenerate(Config{})
}
