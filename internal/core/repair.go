package core

import (
	"context"
	"time"

	"gcplus/internal/cache"
	"gcplus/internal/graph"
	"gcplus/internal/subiso"
)

// This file implements the Runtime side of the background cache-repair
// pipeline. The CON model of §5.2 only ever *clears* validity bits; a
// cleared bit stays dead until a later query happens to re-verify that
// (entry, graph) pair on the hot path, so update-heavy traffic steadily
// bleeds the cache's pruning power. Repair re-verifies invalidated
// pairs off the query path and restores the bits.
//
// The pipeline is split into three phases so a serving shard can run
// the expensive middle phase on background goroutines while the owner
// goroutine keeps serving:
//
//	PlanRepairs   — owner only: drains the cache's repair queue and
//	                captures the current graph version of each pair.
//	VerifyRepairs — safe off the owner: re-runs the entry's relation
//	                against the captured (immutable) graph with a
//	                forked compiled matcher; touches no mutable state.
//	CommitRepairs — owner only: restores Answer/Valid bits for results
//	                whose graph version is unchanged (pointer check) and
//	                whose entry is still resident.
//
// # Why the commit is sound
//
// Dataset graphs are immutable values: UA/UR replace the graph pointer
// and DEL clears it, so pointer equality between plan and commit proves
// no logged operation touched the graph in between. The restored bit
// therefore records a relation verified against the *current* graph
// version. If the cache's AppliedSeq still trails the dataset log, the
// next Validate sweep re-examines the bit against the pending records;
// Algorithm 2's survival rules are monotone (UA preserves positives, UR
// preserves negatives), and every pending operation on the graph
// happened at or before the verified version, so a surviving bit
// remains a true fact and a cleared bit is merely conservative. Exactly
// the Theorem 3/6 precondition — valid bits are true facts — is
// preserved, which is what the differential oracle test asserts.

// RepairJob is one planned re-verification: an invalidated (entry,
// graph) pair plus the graph version captured at plan time. The fields
// are unexported; serving layers treat jobs as opaque tokens between
// PlanRepairs, VerifyRepairs and CommitRepairs.
type RepairJob struct {
	entry *cache.Entry
	id    int
	g     *graph.Graph // graph version at plan time (immutable)
}

// RepairResult carries one verified relation back to CommitRepairs.
type RepairResult struct {
	job      RepairJob
	positive bool
	cpu      time.Duration
}

// PendingRepairs returns the number of invalidated pairs queued for
// repair (0 when caching is disabled or no repair queue is configured).
func (r *Runtime) PendingRepairs() int {
	if r.cache == nil {
		return 0
	}
	return r.cache.PendingRepairs()
}

// PlanRepairs drains up to max queued pairs and captures the current
// graph version of each, grouping jobs by entry so VerifyRepairs
// compiles each entry's matcher once. Pairs whose graph has been
// deleted are dropped: a DEL'd id can never become valid again. Like
// every Runtime method it must run on the owner goroutine.
func (r *Runtime) PlanRepairs(max int) []RepairJob {
	if r.cache == nil {
		return nil
	}
	tasks := r.cache.DrainRepairs(max)
	if len(tasks) == 0 {
		return nil
	}
	jobs := make([]RepairJob, 0, len(tasks))
	for _, t := range tasks {
		g := r.ds.Graph(t.GraphID)
		if g == nil {
			continue // deleted since invalidation
		}
		jobs = append(jobs, RepairJob{entry: t.Entry, id: t.GraphID, g: g})
	}
	// Group by entry (stable within the FIFO) so consecutive jobs share
	// a compiled matcher.
	sortJobsByEntry(jobs)
	r.m.RepairPlanned += int64(len(jobs))
	return jobs
}

// sortJobsByEntry stably groups jobs by entry ID, preserving graph-id
// order within a group. Insertion sort: batches are small (≤ the repair
// batch size) and mostly grouped already.
func sortJobsByEntry(jobs []RepairJob) {
	for i := 1; i < len(jobs); i++ {
		j := jobs[i]
		k := i - 1
		for k >= 0 && (jobs[k].entry.ID > j.entry.ID ||
			(jobs[k].entry.ID == j.entry.ID && jobs[k].id > j.id)) {
			jobs[k+1] = jobs[k]
			k--
		}
		jobs[k+1] = j
	}
}

// VerifyRepairs re-verifies the planned jobs, fanning them out to up to
// parallelism workers. Each worker forks the entry's compiled matcher
// (own scratch, shared compiled artifacts) and tests the captured graph
// version; only immutable data is touched, so — uniquely among Runtime
// methods — VerifyRepairs is safe to call off the owner goroutine while
// the owner serves queries and updates.
func (r *Runtime) VerifyRepairs(jobs []RepairJob, parallelism int) []RepairResult {
	return r.VerifyRepairsCtx(context.Background(), jobs, parallelism)
}

// VerifyRepairsCtx is VerifyRepairs with cooperative cancellation:
// workers poll ctx between jobs and stop early when it is done. Only
// the results actually verified are returned — jobs abandoned by the
// cancellation are dropped, which is conservative and safe (their
// validity bits simply stay cleared; a later queue re-invalidation or
// hot-path re-verification can still restore them). CommitRepairs must
// therefore never see a zero-value RepairResult, and this compaction
// is what guarantees it.
func (r *Runtime) VerifyRepairsCtx(ctx context.Context, jobs []RepairJob, parallelism int) []RepairResult {
	if len(jobs) == 0 {
		return nil
	}
	if parallelism < 1 {
		parallelism = 1
	}
	// One base matcher per distinct entry, compiled once up front to test
	// the entry's recorded relation — the same shapes as the verification
	// loop — with the runtime's Method M, as queries verify; workers fork
	// for private scratch.
	bases := make(map[*cache.Entry]*subiso.Matcher, 8)
	for _, j := range jobs {
		if _, ok := bases[j.entry]; !ok {
			bases[j.entry] = compileVerify(j.entry.Query, j.entry.Kind, r.planner.algo)
		}
	}
	results := make([]RepairResult, len(jobs))
	if parallelism > len(jobs) {
		parallelism = len(jobs)
	}
	if parallelism == 1 {
		n := verifyRepairChunk(ctx, jobs, results, bases)
		return results[:n]
	}
	type span struct{ lo, n int }
	spans := make([]span, parallelism)
	done := make(chan struct{}, parallelism)
	for w := 0; w < parallelism; w++ {
		lo, hi := w*len(jobs)/parallelism, (w+1)*len(jobs)/parallelism
		go func(w, lo, hi int) {
			n := verifyRepairChunk(ctx, jobs[lo:hi], results[lo:hi], bases)
			spans[w] = span{lo: lo, n: n}
			done <- struct{}{}
		}(w, lo, hi)
	}
	for w := 0; w < parallelism; w++ {
		<-done
	}
	// Compact the per-chunk completed prefixes into one dense slice so
	// no unfilled zero-value result survives to the commit phase.
	out := results[:0]
	for _, sp := range spans {
		out = append(out, results[sp.lo:sp.lo+sp.n]...)
	}
	return out
}

// verifyRepairChunk runs one worker's share, forking a matcher per
// entry run (jobs are grouped by entry). It polls ctx between jobs and
// returns how many results it completed — always a prefix of out.
func verifyRepairChunk(ctx context.Context, jobs []RepairJob, out []RepairResult, bases map[*cache.Entry]*subiso.Matcher) int {
	var (
		m    *subiso.Matcher
		last *cache.Entry
	)
	done := ctx.Done()
	for i, j := range jobs {
		select {
		case <-done:
			return i
		default:
		}
		if j.entry != last {
			m = bases[j.entry].Fork()
			last = j.entry
		}
		t0 := time.Now()
		out[i] = RepairResult{job: j, positive: m.Contains(j.g), cpu: time.Since(t0)}
	}
	return len(jobs)
}

// CommitRepairs atomically restores the Answer/Valid bits of verified
// results on the owner goroutine. A result is applied only when the
// graph version is unchanged since plan time (pointer equality — any
// logged UA/UR/DEL replaces the pointer) and the entry is still
// resident; stale results are dropped and counted. Returns the number
// of bits restored.
func (r *Runtime) CommitRepairs(results []RepairResult) int {
	if r.cache == nil || len(results) == 0 {
		return 0
	}
	restored := 0
	for _, res := range results {
		r.m.RepairCPU += res.cpu
		r.hists.RepairVerify.Observe(res.cpu)
		if r.ds.Graph(res.job.id) != res.job.g {
			r.m.RepairStale++
			continue
		}
		if r.cache.RestoreBit(res.job.entry, res.job.id, res.positive) {
			restored++
		} else {
			r.m.RepairStale++
		}
	}
	r.m.RepairedBits += int64(restored)
	return restored
}

// DefaultRepairBatch is the number of invalidated pairs a repair round
// drains at once: small enough that a round's commit job stays a brief
// pause between queries, large enough to amortize matcher compilation
// across each entry's invalidated bits.
const DefaultRepairBatch = 256

// ValidityRatio returns the fraction of (entry, live graph) validity
// bits currently set in the cache — 1 when caching is disabled or the
// cache is empty. It is the health metric the repair pipeline recovers
// after update churn.
func (r *Runtime) ValidityRatio() float64 {
	if r.cache == nil {
		return 1
	}
	return r.cache.ValidityRatio(r.ds.LiveSnapshot())
}

// Cache exposes the runtime's cache for inspection and invariant
// checking in tests (nil when caching is disabled). Production callers
// use CacheStats.
func (r *Runtime) Cache() *cache.Cache { return r.cache }
