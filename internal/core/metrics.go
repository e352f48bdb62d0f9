package core

import (
	"time"

	"gcplus/internal/stats"
)

// Metrics aggregates per-query statistics across a runtime's lifetime.
// The benchmark harness derives every series of Figures 4–6 and the §7.2
// insight numbers from one Metrics snapshot per configuration.
type Metrics struct {
	// Queries is the number of queries processed.
	Queries int64
	// MeasuredQueries is the number folded into the time/test averages
	// (warm-up queries can be excluded via ResetMeasurements).
	MeasuredQueries int64

	// QueryTime aggregates per-query processing time (seconds).
	QueryTime stats.Running
	// VerifyTime aggregates the Method M share of processing time (wall
	// clock of the possibly parallel verification loop).
	VerifyTime stats.Running
	// VerifyCPU aggregates the verification workers' summed busy time per
	// query; VerifyCPU/VerifyTime is the realized intra-query speedup.
	VerifyCPU stats.Running
	// HitTime aggregates hit-discovery time.
	HitTime stats.Running
	// Overhead aggregates cache-maintenance time per query.
	Overhead stats.Running
	// ConsistencyTime aggregates the log-analysis/validation (or purge)
	// share of Overhead.
	ConsistencyTime stats.Running
	// SubIsoTests aggregates the number of Method M tests per query.
	SubIsoTests stats.Running
	// TestsSaved aggregates per-query spared tests.
	TestsSaved stats.Running
	// HitCandidates aggregates the per-query number of entries that
	// passed hit discovery's fingerprint prefilter.
	HitCandidates stats.Running
	// HitScanned aggregates the per-query cache+window size at hit
	// discovery; HitCandidates/HitScanned is the prefilter's selectivity.
	HitScanned stats.Running
	// PlanTime aggregates the planner's per-query share.
	PlanTime stats.Running

	// Hit-type counters (§7.2 insight metrics).

	// IsoHitQueries counts queries that discovered at least one
	// isomorphic cached query ("exact-match cache hits" in §7.2).
	IsoHitQueries int64
	// ExactHits counts isomorphic cache hits that fired the §6.3 optimal
	// case (zero sub-iso tests by construction).
	ExactHits int64
	// EmptyShortcuts counts §6.3 second-optimal-case firings.
	EmptyShortcuts int64
	// ContainingHits counts containment hits (cached query ⊇ g).
	ContainingHits int64
	// ContainedHits counts containment hits (cached query ⊆ g).
	ContainedHits int64
	// ZeroTestQueries counts queries answered without any sub-iso test.
	ZeroTestQueries int64
	// PlanCacheHits/PlanCacheMisses count compiled-plan cache outcomes;
	// every query is one or the other.
	PlanCacheHits   int64
	PlanCacheMisses int64
	// TruncatedQueries counts streaming queries that stopped early at
	// their Limit.
	TruncatedQueries int64

	// Repair-pipeline counters (updated by the repair phases, which run
	// on the owner goroutine like query processing).

	// RepairPlanned counts invalidated pairs handed to verification.
	RepairPlanned int64
	// RepairedBits counts validity bits restored by CommitRepairs.
	RepairedBits int64
	// RepairStale counts verified results dropped at commit because the
	// graph version changed mid-flight or the entry was evicted.
	RepairStale int64
	// RepairCPU sums the repair workers' verification time — CPU spent
	// off the query path buying back cache validity.
	RepairCPU time.Duration
}

func (m *Metrics) fold(st *QueryStats) {
	m.Queries++
	m.MeasuredQueries++
	m.QueryTime.AddDuration(st.QueryTime)
	m.VerifyTime.AddDuration(st.VerifyTime)
	m.VerifyCPU.AddDuration(st.VerifyCPUTime)
	m.HitTime.AddDuration(st.HitTime)
	m.Overhead.AddDuration(st.Overhead)
	m.ConsistencyTime.AddDuration(st.ConsistencyTime)
	m.SubIsoTests.Add(float64(st.SubIsoTests))
	m.TestsSaved.Add(float64(st.TestsSaved))
	m.HitCandidates.Add(float64(st.HitCandidates))
	m.HitScanned.Add(float64(st.HitScanned))
	m.PlanTime.AddDuration(st.PlanTime)
	if st.PlanCached {
		m.PlanCacheHits++
	} else {
		m.PlanCacheMisses++
	}
	if st.Truncated {
		m.TruncatedQueries++
	}
	if st.IsoHits > 0 {
		m.IsoHitQueries++
	}
	if st.ExactHit {
		m.ExactHits++
	}
	if st.EmptyShortcut {
		m.EmptyShortcuts++
	}
	m.ContainingHits += int64(st.ContainingHits)
	m.ContainedHits += int64(st.ContainedHits)
	if st.SubIsoTests == 0 {
		m.ZeroTestQueries++
	}
}

// Metrics returns a copy of the aggregated metrics.
func (r *Runtime) Metrics() Metrics { return r.m }

// ResetMeasurements clears the aggregates while keeping the cache warm —
// the evaluation "allows one Window (20 queries) before starting
// measuring GC+'s performance" (§7.1).
func (r *Runtime) ResetMeasurements() {
	queries := r.m.Queries
	r.m = Metrics{Queries: queries}
}

// MeanSubIsoTests returns the mean number of sub-iso tests per query.
func (m *Metrics) MeanSubIsoTests() float64 { return m.SubIsoTests.Mean() }

// RunningSnapshot summarizes one Running accumulator with plain fields so
// metrics serialize to JSON (stats.Running keeps its state unexported).
type RunningSnapshot struct {
	// N is the number of observations folded in.
	N int64 `json:"n"`
	// Mean and Std are the running mean and population standard
	// deviation (seconds for the timing accumulators).
	Mean float64 `json:"mean"`
	Std  float64 `json:"std"`
}

func snap(r stats.Running) RunningSnapshot {
	return RunningSnapshot{N: r.N(), Mean: r.Mean(), Std: r.Std()}
}

// MetricsSnapshot is a JSON-serializable view of Metrics; serving
// front-ends expose one per runtime shard on their stats endpoint.
type MetricsSnapshot struct {
	Queries         int64 `json:"queries"`
	MeasuredQueries int64 `json:"measured_queries"`

	QueryTimeSec       RunningSnapshot `json:"query_time_sec"`
	VerifyTimeSec      RunningSnapshot `json:"verify_time_sec"`
	VerifyCPUSec       RunningSnapshot `json:"verify_cpu_sec"`
	HitTimeSec         RunningSnapshot `json:"hit_time_sec"`
	OverheadSec        RunningSnapshot `json:"overhead_sec"`
	ConsistencyTimeSec RunningSnapshot `json:"consistency_time_sec"`
	SubIsoTests        RunningSnapshot `json:"subiso_tests"`
	TestsSaved         RunningSnapshot `json:"tests_saved"`
	HitCandidates      RunningSnapshot `json:"hit_candidates"`
	HitScanned         RunningSnapshot `json:"hit_scanned"`
	PlanTimeSec        RunningSnapshot `json:"plan_time_sec"`

	IsoHitQueries    int64 `json:"iso_hit_queries"`
	ExactHits        int64 `json:"exact_hits"`
	EmptyShortcuts   int64 `json:"empty_shortcuts"`
	ContainingHits   int64 `json:"containing_hits"`
	ContainedHits    int64 `json:"contained_hits"`
	ZeroTestQueries  int64 `json:"zero_test_queries"`
	PlanCacheHits    int64 `json:"plan_cache_hits"`
	PlanCacheMisses  int64 `json:"plan_cache_misses"`
	TruncatedQueries int64 `json:"truncated_queries"`

	RepairPlanned int64   `json:"repair_planned"`
	RepairedBits  int64   `json:"repaired_bits"`
	RepairStale   int64   `json:"repair_stale"`
	RepairCPUSec  float64 `json:"repair_cpu_sec"`
}

// Snapshot converts the metrics to their JSON-serializable form.
func (m *Metrics) Snapshot() MetricsSnapshot {
	return MetricsSnapshot{
		Queries:            m.Queries,
		MeasuredQueries:    m.MeasuredQueries,
		QueryTimeSec:       snap(m.QueryTime),
		VerifyTimeSec:      snap(m.VerifyTime),
		VerifyCPUSec:       snap(m.VerifyCPU),
		HitTimeSec:         snap(m.HitTime),
		OverheadSec:        snap(m.Overhead),
		ConsistencyTimeSec: snap(m.ConsistencyTime),
		SubIsoTests:        snap(m.SubIsoTests),
		TestsSaved:         snap(m.TestsSaved),
		HitCandidates:      snap(m.HitCandidates),
		HitScanned:         snap(m.HitScanned),
		PlanTimeSec:        snap(m.PlanTime),
		IsoHitQueries:      m.IsoHitQueries,
		ExactHits:          m.ExactHits,
		EmptyShortcuts:     m.EmptyShortcuts,
		ContainingHits:     m.ContainingHits,
		ContainedHits:      m.ContainedHits,
		ZeroTestQueries:    m.ZeroTestQueries,
		PlanCacheHits:      m.PlanCacheHits,
		PlanCacheMisses:    m.PlanCacheMisses,
		TruncatedQueries:   m.TruncatedQueries,
		RepairPlanned:      m.RepairPlanned,
		RepairedBits:       m.RepairedBits,
		RepairStale:        m.RepairStale,
		RepairCPUSec:       m.RepairCPU.Seconds(),
	}
}

// HitRate returns the fraction of measured queries answered without a
// single Method M sub-iso test (the §6.3 optimal cases plus fully pruned
// candidate sets) — the serving layer's headline per-shard cache metric.
// MeasuredQueries is the denominator because ZeroTestQueries, like every
// aggregate, is cleared by ResetMeasurements while Queries is not.
func (m *Metrics) HitRate() float64 {
	if m.MeasuredQueries == 0 {
		return 0
	}
	return float64(m.ZeroTestQueries) / float64(m.MeasuredQueries)
}
