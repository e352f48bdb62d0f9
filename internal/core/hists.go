package core

import "gcplus/internal/obs"

// StageHists holds the runtime's per-stage latency histograms. Unlike
// the Welford aggregates in Metrics they carry the full latency
// distribution (tail percentiles for /metrics and the slow-query log),
// are never cleared by ResetMeasurements, and are safe to read while
// the owner goroutine records — so a scrape can walk them without
// entering the shard's job queue.
//
// Because ResetMeasurements preserves Metrics.Queries and the
// histograms are never reset, Query.Count() always equals
// Metrics.Queries — the invariant the serving layer's exposition tests
// pin.
type StageHists struct {
	// Query is end-to-end per-query processing time minus cache
	// maintenance (the paper's "query processing time").
	Query *obs.Histogram
	// Hit is hit-discovery time (GC+sub/GC+super scan or index probe).
	Hit *obs.Histogram
	// Verify is the wall-clock of the Method M verification loop;
	// VerifyCPU is the workers' summed busy time.
	Verify    *obs.Histogram
	VerifyCPU *obs.Histogram
	// Overhead is cache-maintenance time; Consistency is its
	// log-analysis/validation share.
	Overhead    *obs.Histogram
	Consistency *obs.Histogram
	// RepairVerify is the off-owner verification time of one repair
	// result (recorded at commit, one observation per repaired pair).
	RepairVerify *obs.Histogram
	// Plan is the planner's share of query time: plan-cache lookup plus,
	// on a miss, compilation.
	Plan *obs.Histogram
}

func newStageHists() *StageHists {
	return &StageHists{
		Query:        obs.NewHistogram(),
		Hit:          obs.NewHistogram(),
		Verify:       obs.NewHistogram(),
		VerifyCPU:    obs.NewHistogram(),
		Overhead:     obs.NewHistogram(),
		Consistency:  obs.NewHistogram(),
		RepairVerify: obs.NewHistogram(),
		Plan:         obs.NewHistogram(),
	}
}

// observe records one finished query's stage durations. A non-zero
// traceID marks the query as trace-sampled: each stage histogram then
// cites it as the exemplar for the bucket this query landed in, which
// is the /metrics → /debug/traces bridge (spot a slow bucket, follow
// its exemplar to a full trace).
func (s *StageHists) observe(st *QueryStats, traceID uint64) {
	s.Query.Observe(st.QueryTime)
	s.Hit.Observe(st.HitTime)
	s.Verify.Observe(st.VerifyTime)
	s.VerifyCPU.Observe(st.VerifyCPUTime)
	s.Overhead.Observe(st.Overhead)
	s.Consistency.Observe(st.ConsistencyTime)
	s.Plan.Observe(st.PlanTime)
	if traceID != 0 {
		s.Query.SetExemplar(st.QueryTime, traceID)
		s.Hit.SetExemplar(st.HitTime, traceID)
		s.Verify.SetExemplar(st.VerifyTime, traceID)
		s.VerifyCPU.SetExemplar(st.VerifyCPUTime, traceID)
		s.Overhead.SetExemplar(st.Overhead, traceID)
		s.Consistency.SetExemplar(st.ConsistencyTime, traceID)
		s.Plan.SetExemplar(st.PlanTime, traceID)
	}
}

// StageHists returns the runtime's per-stage latency histograms. The
// histograms are live: recording continues while callers read them.
func (r *Runtime) StageHists() *StageHists { return r.hists }
