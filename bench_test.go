package gcplus

// Benchmarks regenerating the paper's evaluation figures as testing.B
// targets, one per figure/series, at the seconds-level "smoke" scale.
// The interesting output is the custom metrics: ms/query, tests/query and
// speedup-vs-M (the shapes behind Figures 4–6). For the full repro- or
// paper-scale tables, use cmd/gcbench; docs/paper.md maps both to the paper.

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"gcplus/internal/bench"
	"gcplus/internal/cache"
)

// benchScale trims the smoke scale so a full grid stays benchmark-fast.
func benchScale() bench.Scale {
	sc := bench.ScaleSmoke()
	sc.Queries = 100
	return sc
}

// runCell executes one experiment per b.N iteration and reports the
// per-query metrics the figures are built from.
func runCell(b *testing.B, cfg bench.RunConfig, baseline *bench.RunResult) *bench.RunResult {
	b.Helper()
	var last *bench.RunResult
	for i := 0; i < b.N; i++ {
		res, err := bench.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	m := last.Metrics
	b.ReportMetric(m.QueryTime.Mean()*1000, "ms/query")
	b.ReportMetric(m.MeanSubIsoTests(), "tests/query")
	if baseline != nil {
		bt := baseline.Metrics.QueryTime.Mean()
		if qt := m.QueryTime.Mean(); qt > 0 {
			b.ReportMetric(bt/qt, "time-speedup")
		}
		btests := baseline.Metrics.MeanSubIsoTests()
		if tq := m.MeanSubIsoTests(); tq > 0 {
			b.ReportMetric(btests/tq, "test-speedup")
		}
	}
	return last
}

// BenchmarkFigure4QueryTimeSpeedup covers Figure 4: query-time speedup of
// EVI and CON over raw Method M, per method × workload.
func BenchmarkFigure4QueryTimeSpeedup(b *testing.B) {
	sc := benchScale()
	for _, method := range []string{"VF2", "VF2+", "GQL"} {
		for _, wl := range []string{"ZZ", "0%"} {
			spec, err := bench.SpecByName(wl)
			if err != nil {
				b.Fatal(err)
			}
			base, err := bench.Run(bench.RunConfig{Scale: sc, Workload: spec, Method: method, System: bench.SystemM, Seed: 42})
			if err != nil {
				b.Fatal(err)
			}
			for _, sys := range []bench.System{bench.SystemM, bench.SystemEVI, bench.SystemCON} {
				b.Run(fmt.Sprintf("%s/%s/%s", method, wl, sys), func(b *testing.B) {
					runCell(b, bench.RunConfig{Scale: sc, Workload: spec, Method: method, System: sys, Seed: 42}, base)
				})
			}
		}
	}
}

// BenchmarkFigure5SubIsoSpeedup covers Figure 5: speedup in the number of
// sub-iso tests per query across all six workloads (method-independent;
// VF2 is used).
func BenchmarkFigure5SubIsoSpeedup(b *testing.B) {
	sc := benchScale()
	for _, spec := range bench.AllSpecs() {
		base, err := bench.Run(bench.RunConfig{Scale: sc, Workload: spec, Method: "VF2", System: bench.SystemM, Seed: 42})
		if err != nil {
			b.Fatal(err)
		}
		for _, sys := range []bench.System{bench.SystemEVI, bench.SystemCON} {
			b.Run(fmt.Sprintf("%s/%s", spec.Name, sys), func(b *testing.B) {
				runCell(b, bench.RunConfig{Scale: sc, Workload: spec, Method: "VF2", System: sys, Seed: 42}, base)
			})
		}
	}
}

// BenchmarkFigure6Overhead covers Figure 6: per-query execution time and
// cache-maintenance overhead for M, EVI and CON (VF2, ZZ and 0%).
func BenchmarkFigure6Overhead(b *testing.B) {
	sc := benchScale()
	for _, wl := range []string{"ZZ", "0%"} {
		spec, err := bench.SpecByName(wl)
		if err != nil {
			b.Fatal(err)
		}
		for _, sys := range []bench.System{bench.SystemM, bench.SystemEVI, bench.SystemCON} {
			b.Run(fmt.Sprintf("%s/%s", wl, sys), func(b *testing.B) {
				res := runCell(b, bench.RunConfig{Scale: sc, Workload: spec, Method: "VF2", System: sys, Seed: 42}, nil)
				m := res.Metrics
				b.ReportMetric(m.Overhead.Mean()*1e6, "overhead-µs/query")
				b.ReportMetric(m.ConsistencyTime.Mean()*1e6, "consistency-µs/query")
			})
		}
	}
}

// BenchmarkAblationPolicies sweeps the replacement policies under CON
// (the HD-vs-PIN-vs-PINC comparison behind §7.1's policy discussion).
func BenchmarkAblationPolicies(b *testing.B) {
	sc := benchScale()
	spec, err := bench.SpecByName("ZZ")
	if err != nil {
		b.Fatal(err)
	}
	for _, pol := range []cache.Policy{cache.PolicyHD, cache.PolicyPIN, cache.PolicyPINC, cache.PolicyLRU, cache.PolicyLFU} {
		b.Run(string(pol), func(b *testing.B) {
			runCell(b, bench.RunConfig{Scale: sc, Workload: spec, Method: "VF2", System: bench.SystemCON, Policy: pol, Seed: 42}, nil)
		})
	}
}

// BenchmarkAblationValidityRules compares full Algorithm 2 against the
// strict variant without the UA/UR-exclusive survival rules.
func BenchmarkAblationValidityRules(b *testing.B) {
	sc := benchScale()
	spec, err := bench.SpecByName("ZZ")
	if err != nil {
		b.Fatal(err)
	}
	for _, strict := range []bool{false, true} {
		name := "algorithm2"
		if strict {
			name = "strict"
		}
		b.Run(name, func(b *testing.B) {
			runCell(b, bench.RunConfig{Scale: sc, Workload: spec, Method: "VF2", System: bench.SystemCON, StrictInvalidation: strict, Seed: 42}, nil)
		})
	}
}

// BenchmarkConcurrentThroughput measures the sharded serving front-end:
// parallel clients issue subgraph queries against a warm Server while a
// background writer applies ADD batches, exercising the epoch-sequenced
// update path under load. Compare ns/op across shard counts for the
// scaling trajectory (bash benchmark/run.sh reports qps/p50/p99 for the
// same system).
func BenchmarkConcurrentThroughput(b *testing.B) {
	graphs, err := GenerateAIDSLike(400, 3)
	if err != nil {
		b.Fatal(err)
	}
	base := graphs[0]
	queries := []*Graph{
		PathGraph(base.Label(0), base.Label(1)),
		PathGraph(base.Label(0), base.Label(1), base.Label(2)),
		StarGraph(base.Label(1), base.Label(0), base.Label(2)),
	}
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			srv, err := NewServer(graphs, ServeOptions{Shards: shards})
			if err != nil {
				b.Fatal(err)
			}
			defer srv.Close()
			for _, q := range queries { // warm the shard caches
				if _, err := srv.SubgraphQuery(q); err != nil {
					b.Fatal(err)
				}
			}
			stop := make(chan struct{})
			var writerWG sync.WaitGroup
			writerWG.Add(1)
			go func() {
				defer writerWG.Done()
				i := 0
				for {
					select {
					case <-stop:
						return
					default:
					}
					op := NewAddOp(graphs[i%len(graphs)].Clone())
					if _, err := srv.Update([]UpdateOp{op}); err != nil {
						b.Error(err)
						return
					}
					i++
					time.Sleep(time.Millisecond)
				}
			}()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				for pb.Next() {
					if _, err := srv.SubgraphQuery(queries[i%len(queries)]); err != nil {
						b.Error(err)
						return
					}
					i++
				}
			})
			b.StopTimer()
			close(stop)
			writerWG.Wait()
		})
	}
}

// BenchmarkQueryWarmCache measures the steady-state cost of a single
// query against a warm CON cache — the operation a deployed GC+ serves.
func BenchmarkQueryWarmCache(b *testing.B) {
	graphs, err := GenerateAIDSLike(400, 3)
	if err != nil {
		b.Fatal(err)
	}
	sys, err := Open(graphs, Options{Method: "VF2+"})
	if err != nil {
		b.Fatal(err)
	}
	base := sys.Graph(0)
	queries := make([]*Graph, 8)
	for i := range queries {
		queries[i] = PathGraph(base.Label(0), base.Label(1), base.Label(0))
	}
	// warm
	for _, q := range queries {
		if _, err := sys.SubgraphQuery(q.Clone()); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.SubgraphQuery(queries[i%len(queries)].Clone()); err != nil {
			b.Fatal(err)
		}
	}
}
