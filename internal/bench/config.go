// Package bench is the benchmark harness that regenerates the paper's
// evaluation (§7): Figure 4 (query-time speedups of EVI and CON over raw
// Method M), Figure 5 (speedups in number of sub-iso tests), Figure 6
// (time and overhead break-down), the §7.2 insight statistics, and a set
// of ablations (replacement policies, cache sizes, Algorithm 2's validity
// optimizations, change rates).
//
// Experiments are deterministic: a (Scale, WorkloadSpec, Method, System,
// Seed) tuple fully determines the dataset, the query stream, the change
// plan and hence every answer. Absolute times depend on the host; the
// speedup *shapes* are what reproduce the paper (see docs/paper.md).
package bench

import (
	"fmt"

	"gcplus/internal/graph"
	"gcplus/internal/workload"
)

// Scale sizes an experiment. The paper runs 40,000 AIDS graphs × 10,000
// queries on a 60-core server; the default "repro" scale keeps every
// mechanism parameter (cache 100, window 20, Zipf α, query sizes, ops per
// query) and shrinks only the population sizes.
type Scale struct {
	// Name tags reports.
	Name string
	// DatasetGraphs is the initial dataset size.
	DatasetGraphs int
	// Queries is the workload length (excluding nothing; the first
	// WarmupQueries are executed but excluded from averages, as the
	// paper allows one window before measuring).
	Queries int
	// WarmupQueries are executed before measurement starts (paper: one
	// window = 20).
	WarmupQueries int
	// MeanVertices/StdVertices/MaxVertices shape dataset graphs.
	MeanVertices float64
	StdVertices  float64
	MaxVertices  int
	// CacheCapacity and WindowSize mirror §7.1 (100 and 20).
	CacheCapacity int
	WindowSize    int
	// PoolSize and NoAnswerPoolSize size the Type B pools.
	PoolSize         int
	NoAnswerPoolSize int
}

// ScaleSmoke is a seconds-level scale for go test benches and CI.
func ScaleSmoke() Scale {
	return Scale{
		Name:             "smoke",
		DatasetGraphs:    150,
		Queries:          120,
		WarmupQueries:    20,
		MeanVertices:     22,
		StdVertices:      8,
		MaxVertices:      60,
		CacheCapacity:    100,
		WindowSize:       20,
		PoolSize:         60,
		NoAnswerPoolSize: 18,
	}
}

// ScaleRepro is the default scale for cmd/gcbench: minutes-level, AIDS-
// like per-graph statistics.
func ScaleRepro() Scale {
	return Scale{
		Name:             "repro",
		DatasetGraphs:    1200,
		Queries:          600,
		WarmupQueries:    20,
		MeanVertices:     45,
		StdVertices:      22,
		MaxVertices:      245,
		CacheCapacity:    100,
		WindowSize:       20,
		PoolSize:         400,
		NoAnswerPoolSize: 120,
	}
}

// ScalePaper is the full §7.1 configuration (hours of compute).
func ScalePaper() Scale {
	return Scale{
		Name:             "paper",
		DatasetGraphs:    40000,
		Queries:          10000,
		WarmupQueries:    20,
		MeanVertices:     45,
		StdVertices:      22,
		MaxVertices:      245,
		CacheCapacity:    100,
		WindowSize:       20,
		PoolSize:         10000,
		NoAnswerPoolSize: 3000,
	}
}

// ScaleByName resolves "smoke", "repro" or "paper".
func ScaleByName(name string) (Scale, error) {
	switch name {
	case "smoke":
		return ScaleSmoke(), nil
	case "repro":
		return ScaleRepro(), nil
	case "paper":
		return ScalePaper(), nil
	}
	return Scale{}, fmt.Errorf("bench: unknown scale %q (want smoke, repro or paper)", name)
}

// WorkloadSpec names one of the paper's six workloads and generates it.
type WorkloadSpec struct {
	// Name is the paper's label ("ZZ", "ZU", "UU", "0%", "20%", "50%").
	Name string
	// TypeA tells whether this is a Type A (BFS-extracted) workload.
	TypeA bool
	// GraphDist and NodeDist apply to Type A.
	GraphDist, NodeDist workload.Dist
	// NoAnswerProb applies to Type B.
	NoAnswerProb float64
}

// TypeASpecs returns the paper's Type A workloads in figure order.
func TypeASpecs() []WorkloadSpec {
	return []WorkloadSpec{
		{Name: "ZZ", TypeA: true, GraphDist: workload.Zipf, NodeDist: workload.Zipf},
		{Name: "ZU", TypeA: true, GraphDist: workload.Zipf, NodeDist: workload.Uniform},
		{Name: "UU", TypeA: true, GraphDist: workload.Uniform, NodeDist: workload.Uniform},
	}
}

// TypeBSpecs returns the paper's Type B workloads in figure order.
func TypeBSpecs() []WorkloadSpec {
	return []WorkloadSpec{
		{Name: "0%", NoAnswerProb: 0},
		{Name: "20%", NoAnswerProb: 0.2},
		{Name: "50%", NoAnswerProb: 0.5},
	}
}

// AllSpecs returns all six workloads in the paper's presentation order.
func AllSpecs() []WorkloadSpec { return append(TypeASpecs(), TypeBSpecs()...) }

// SpecByName resolves a workload label.
func SpecByName(name string) (WorkloadSpec, error) {
	for _, s := range AllSpecs() {
		if s.Name == name {
			return s, nil
		}
	}
	return WorkloadSpec{}, fmt.Errorf("bench: unknown workload %q", name)
}

// Generate materializes the workload over the initial dataset graphs.
func (s WorkloadSpec) Generate(initial []*graph.Graph, sc Scale, seed int64) (*workload.Workload, error) {
	if s.TypeA {
		return workload.TypeA(initial, workload.TypeAConfig{
			Queries:   sc.Queries,
			GraphDist: s.GraphDist,
			NodeDist:  s.NodeDist,
			Seed:      seed,
		})
	}
	return workload.TypeB(initial, workload.TypeBConfig{
		Queries:          sc.Queries,
		PoolSize:         sc.PoolSize,
		NoAnswerPoolSize: sc.NoAnswerPoolSize,
		NoAnswerProb:     s.NoAnswerProb,
		Seed:             seed,
	})
}
