package bench

import (
	"fmt"
	"sync"
	"time"

	"gcplus/internal/cache"
	"gcplus/internal/changeplan"
	"gcplus/internal/core"
	"gcplus/internal/dataset"
	"gcplus/internal/graph"
	"gcplus/internal/subiso"
	"gcplus/internal/synthetic"
	"gcplus/internal/workload"
)

// System identifies what executes the workload.
type System string

const (
	// SystemM is raw Method M: no cache, every live graph tested.
	SystemM System = "M"
	// SystemEVI is GC+ with the evict-on-change model.
	SystemEVI System = "EVI"
	// SystemCON is GC+ with the consistency model.
	SystemCON System = "CON"
)

// RunConfig fully determines one experiment.
type RunConfig struct {
	// Scale sizes the experiment.
	Scale Scale
	// Workload selects one of the six §7.1 workloads.
	Workload WorkloadSpec
	// Method names Method M's algorithm: "VF2", "VF2+" or "GQL".
	Method string
	// System selects M / EVI / CON.
	System System
	// Policy is the replacement policy (default HD, as in the paper).
	Policy cache.Policy
	// CacheCapacity overrides Scale.CacheCapacity when positive
	// (cache-size ablation).
	CacheCapacity int
	// StrictInvalidation ablates Algorithm 2's survival rules.
	StrictInvalidation bool
	// ChangeOpsFactor scales the number of change batches relative to
	// the paper's density; the zero value means 1 (paper density). Used
	// by the change-rate ablation.
	ChangeOpsFactor float64
	// NoChanges freezes the dataset (no change plan at all).
	NoChanges bool
	// Seed determines dataset, workload and change plan.
	Seed int64
}

// RunResult carries everything the figure printers need.
type RunResult struct {
	Config       RunConfig
	Metrics      core.Metrics
	Wall         time.Duration
	OpsApplied   int
	OpsSkipped   int
	DatasetStats dataset.Stats
	FinalCache   int
}

// Run executes one experiment end to end: generate dataset, workload and
// change plan from the seed; stream the queries through the configured
// system, firing due change batches before each query; measure after the
// warm-up prefix.
func Run(cfg RunConfig) (*RunResult, error) {
	if cfg.ChangeOpsFactor < 0 {
		return nil, fmt.Errorf("bench: negative ChangeOpsFactor")
	}
	if cfg.Policy == "" {
		cfg.Policy = cache.PolicyHD
	}

	algo, err := subiso.New(cfg.Method)
	if err != nil {
		return nil, err
	}

	// Dataset (AIDS-like; the substitution is documented in docs/paper.md).
	initial, err := generateDataset(cfg.Scale, cfg.Seed)
	if err != nil {
		return nil, err
	}
	ds := dataset.New(initial)

	// Workload. Generation is memoized across runs of the same grid:
	// systems M, EVI and CON must see the identical query stream anyway,
	// and Type B pool synthesis (no-answer relabelling with verification)
	// costs far more than a run itself.
	wl, err := memoizedWorkload(cfg.Workload, initial, cfg.Scale, cfg.Seed+1)
	if err != nil {
		return nil, err
	}

	// Change plan at the paper's ops-per-query density, scaled.
	planCfg := changeplan.Scaled(cfg.Scale.Queries, cfg.Seed+2)
	planCfg.Batches = int(float64(planCfg.Batches) * cfg.ChangeOpsFactorOrDefault())
	if cfg.NoChanges {
		planCfg.Batches = 0
	}
	plan, err := changeplan.Generate(planCfg)
	if err != nil {
		return nil, err
	}
	exec := changeplan.NewExecutor(plan, initial, cfg.Seed+3)

	// System under test. Verification stays sequential here: the figure,
	// insight and ablation experiments reproduce the paper's
	// single-streamed per-query timings, which must not depend on the
	// host's core count (the throughput mode is where parallel
	// verification is measured).
	opts := core.Options{Algorithm: algo, VerifyParallelism: 1}
	if cfg.System != SystemM {
		capacity := cfg.Scale.CacheCapacity
		if cfg.CacheCapacity > 0 {
			capacity = cfg.CacheCapacity
		}
		model := cache.ModelCON
		if cfg.System == SystemEVI {
			model = cache.ModelEVI
		}
		opts.Cache = &cache.Config{
			Capacity:           capacity,
			WindowSize:         cfg.Scale.WindowSize,
			Model:              model,
			Policy:             cfg.Policy,
			StrictInvalidation: cfg.StrictInvalidation,
		}
	}
	rt, err := core.NewRuntime(ds, opts)
	if err != nil {
		return nil, err
	}

	start := time.Now()
	for i, q := range wl.Queries {
		exec.ApplyDue(ds, i)
		if i == cfg.Scale.WarmupQueries {
			rt.ResetMeasurements()
		}
		if _, err := rt.SubgraphQuery(q); err != nil {
			return nil, fmt.Errorf("bench: query %d: %w", i, err)
		}
	}
	return &RunResult{
		Config:       cfg,
		Metrics:      rt.Metrics(),
		Wall:         time.Since(start),
		OpsApplied:   exec.Applied(),
		OpsSkipped:   exec.Skipped(),
		DatasetStats: ds.ComputeStats(),
		FinalCache:   rt.CacheSize(),
	}, nil
}

// workloadMemo caches generated workloads by (scale, spec, seed). Query
// graphs are immutable once built, so sharing them across runs is safe.
var workloadMemo sync.Map // key string -> *workload.Workload

// datasetMemo caches the *initial* graph list per (scale, seed). Each run
// builds a fresh dataset.Dataset on top; runs never mutate the initial
// graphs (UA/UR are copy-on-write and ADD clones pool graphs), so sharing
// the list is safe.
var datasetMemo sync.Map // key string -> []*graph.Graph

func generateDataset(sc Scale, seed int64) ([]*graph.Graph, error) {
	key := fmt.Sprintf("%d|%d|%g|%g|%d", sc.DatasetGraphs, seed, sc.MeanVertices, sc.StdVertices, sc.MaxVertices)
	if v, ok := datasetMemo.Load(key); ok {
		return v.([]*graph.Graph), nil
	}
	synCfg := synthetic.Default().WithGraphs(sc.DatasetGraphs)
	synCfg.MeanVertices = sc.MeanVertices
	synCfg.StdVertices = sc.StdVertices
	synCfg.MaxVertices = sc.MaxVertices
	synCfg.Seed = seed
	initial, err := synthetic.Generate(synCfg)
	if err != nil {
		return nil, err
	}
	datasetMemo.Store(key, initial)
	return initial, nil
}

func memoizedWorkload(spec WorkloadSpec, initial []*graph.Graph, sc Scale, seed int64) (*workload.Workload, error) {
	key := fmt.Sprintf("%s|%d|%d|%d|%g|%v|%v|%v", spec.Name, sc.DatasetGraphs, sc.Queries, seed,
		spec.NoAnswerProb, spec.TypeA, spec.GraphDist, spec.NodeDist)
	if v, ok := workloadMemo.Load(key); ok {
		return v.(*workload.Workload), nil
	}
	wl, err := spec.Generate(initial, sc, seed)
	if err != nil {
		return nil, err
	}
	workloadMemo.Store(key, wl)
	return wl, nil
}

// ChangeOpsFactorOrDefault returns the change-rate factor, defaulting to
// the paper's density (1).
func (c RunConfig) ChangeOpsFactorOrDefault() float64 {
	if c.ChangeOpsFactor == 0 {
		return 1
	}
	return c.ChangeOpsFactor
}

// Label renders a short run identifier for reports.
func (c RunConfig) Label() string {
	return fmt.Sprintf("%s/%s/%s", c.Method, c.Workload.Name, c.System)
}
