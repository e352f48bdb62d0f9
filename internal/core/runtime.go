// Package core implements GC+'s Query Processing Runtime (§4 and §6 of
// the paper): the GC+sub and GC+super processors that discover
// subgraph/supergraph relations between a new query and cached queries,
// the Candidate Set Pruner realizing formulas (1)–(5), the two optimal
// cases of §6.3 (isomorphic cache hit and empty-answer shortcut), and the
// orchestration that keeps the cache consistent with the dataset log
// before every query (EVI purge or CON validation).
//
// The pruner's output is provably exact — Theorems 3 and 6 of the paper:
// no false positives (every returned graph either passed a sub-iso test
// or is implied by a still-valid cached positive) and no false negatives
// (a graph is only exempted from testing when a still-valid cached fact
// makes its answer certain). The package's property tests check GC+
// against brute-force ground truth under randomized query/change
// interleavings.
package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"gcplus/internal/bitset"
	"gcplus/internal/cache"
	"gcplus/internal/dataset"
	"gcplus/internal/graph"
	"gcplus/internal/stats"
	"gcplus/internal/subiso"
)

// Options configures a Runtime.
type Options struct {
	// Algorithm is Method M's sub-iso implementation, fixed for the
	// runtime's life as the paper fixes Method M per run (§7.1): every
	// query and every background repair verifies with it. Nil means
	// subiso.VF2Plus{}.
	Algorithm subiso.Algorithm
	// Cache configures the graph cache. Nil disables caching entirely,
	// yielding the pure Method M baseline of the evaluation.
	Cache *cache.Config
	// VerifyParallelism bounds the worker pool that verifies the pruned
	// candidate set within one query: candidates are split into chunks
	// tested concurrently, each worker with its own compiled-matcher
	// scratch, and the per-worker answer bitsets are merged. 0 (the
	// default) means GOMAXPROCS; 1 keeps verification sequential.
	VerifyParallelism int
}

// Runtime executes subgraph/supergraph queries against a dataset,
// optionally through the GC+ cache. It is not safe for concurrent use;
// callers own serialization (the evaluation harness is single-streamed,
// like the paper's query workloads). Internally, though, one query may
// fan its verification loop out to VerifyParallelism workers — the
// dataset snapshot and graph values are immutable, so the only shared
// mutable state is the per-worker answer bitsets, merged after the join.
type Runtime struct {
	ds        *dataset.Dataset
	cache     *cache.Cache // nil when caching is disabled
	verifyPar int          // resolved VerifyParallelism (>= 1)

	// avgTestCost tracks the observed mean cost of one Method M sub-iso
	// test; it seeds cost estimates for entries admitted with zero tests.
	avgTestCost stats.Running

	// planner is the compiled-plan cache; its algo is the runtime's
	// Method M, which queries and background repair both verify with.
	planner *planner

	m     Metrics
	hists *StageHists
}

// NewRuntime builds a Runtime over the dataset. A cached runtime starts
// its cache empty at the dataset's current sequence number, so a dataset
// rebuilt by dataset.Restore serves as well as a fresh one. It also
// trims the dataset's update log as it reads it: a dataset has at most
// one cached runtime, though any number of cache-less ones may share it.
func NewRuntime(ds *dataset.Dataset, opts Options) (*Runtime, error) {
	if ds == nil {
		return nil, errors.New("core: nil dataset")
	}
	algo := opts.Algorithm
	if algo == nil {
		algo = subiso.VF2Plus{}
	}
	r := &Runtime{
		ds:        ds,
		verifyPar: opts.VerifyParallelism,
		planner:   newPlanner(algo),
		hists:     newStageHists(),
	}
	if r.verifyPar <= 0 {
		r.verifyPar = runtime.GOMAXPROCS(0)
	}
	if opts.Cache != nil {
		// Fail loudly and gracefully on a mistyped policy or model
		// instead of letting the first eviction silently score like PIN.
		if err := opts.Cache.Validate(); err != nil {
			return nil, err
		}
		r.cache = cache.New(*opts.Cache)
		r.cache.SetAppliedSeq(ds.Seq())
	}
	return r, nil
}

// Dataset returns the runtime's dataset.
func (r *Runtime) Dataset() *dataset.Dataset { return r.ds }

// CacheEnabled reports whether GC+ caching is active.
func (r *Runtime) CacheEnabled() bool { return r.cache != nil }

// CacheSize returns the number of admitted cache entries (0 if disabled).
func (r *Runtime) CacheSize() int {
	if r.cache == nil {
		return 0
	}
	return r.cache.Size()
}

// Result is the outcome of one query.
type Result struct {
	// Answer is the answer set as dataset graph ids.
	Answer *bitset.Set
	// Stats describes how the answer was obtained.
	Stats QueryStats
}

// AnswerIDs returns the answer as a sorted id slice.
func (res *Result) AnswerIDs() []int { return res.Answer.Indices() }

// QueryStats instruments one query execution.
type QueryStats struct {
	// Kind is the query kind.
	Kind cache.Kind
	// CandidatesBefore is |CS_M(g)|, the live dataset size.
	CandidatesBefore int
	// SubIsoTests is the number of Method M sub-iso tests executed after
	// pruning (|CS_GC+|; the paper's headline count metric).
	SubIsoTests int
	// SearchStates counts the search states (partial-mapping extensions)
	// those tests explored, summed over the verification workers like
	// VerifyCPUTime: the same work counted exactly, with no clock noise.
	SearchStates int
	// TestsSaved = CandidatesBefore − SubIsoTests.
	TestsSaved int
	// ContainingHits counts cached queries found to contain g.
	ContainingHits int
	// ContainedHits counts cached queries found to be contained in g.
	ContainedHits int
	// IsoHits counts cached queries discovered to be isomorphic to g
	// (the paper's "exact-match cache hits"; only the fully valid ones
	// fire the §6.3 optimal case and yield zero sub-iso tests).
	IsoHits int
	// ExactHit reports an isomorphic cache hit (§6.3 first optimal case;
	// it fires only when the hit entry is fully valid).
	ExactHit bool
	// EmptyShortcut reports the §6.3 second optimal case (certain-empty
	// answer without any sub-iso test).
	EmptyShortcut bool
	// QueryTime is the end-to-end processing time excluding Overhead.
	QueryTime time.Duration
	// VerifyTime is the Method M portion of QueryTime (wall clock: under
	// parallel verification this is the fan-out/join span).
	VerifyTime time.Duration
	// VerifyCPUTime sums the verification workers' busy time; it is
	// about VerifyTime when sequential, and VerifyCPUTime/VerifyTime is
	// the realized intra-query parallel speedup.
	VerifyCPUTime time.Duration
	// VerifyWorkers is the number of workers the verification loop fanned
	// out to (1 = sequential, 0 = nothing left to verify).
	VerifyWorkers int
	// HitTime is the hit-discovery portion of QueryTime.
	HitTime time.Duration
	// HitScanned is the number of cache+window entries present at hit
	// discovery, the entries its fingerprint scan walks; 0 when a fully
	// valid exact repeat went straight to its plan's remembered entry.
	HitScanned int
	// HitCandidates is the number of entries that passed the fingerprint
	// prefilter and so reached a containment verdict; on the replay
	// path, the probed entries plus the related ones; 1 on the
	// exact-repeat fast path, which also counts its entry as one iso, one
	// containing and one contained hit. HitCandidates/HitScanned is the
	// prefilter's selectivity.
	HitCandidates int
	// Overhead is cache-maintenance time: consistency (log analysis +
	// validation or purge) plus window/cache updates. Figure 6's
	// "Overhead" series.
	Overhead time.Duration
	// ConsistencyTime is the log-analysis + validation (or purge) part
	// of Overhead; the paper reports it below 1% of CON's overhead.
	ConsistencyTime time.Duration
	// CacheBypassed reports that the query ran with QueryOptions.
	// BypassCache while a cache was configured — pure Method M, no
	// admission (degraded-mode serving).
	CacheBypassed bool
	// PlanTime is the planner's share of QueryTime: plan-cache lookup
	// plus, on a miss, compilation.
	PlanTime time.Duration
	// PlanAlgorithm names the Method M algorithm this query verified
	// with: the runtime's Options.Algorithm, VF2+ when that is nil.
	PlanAlgorithm string
	// PlanCached reports that the query reused a cached compiled plan
	// (a structurally equal repeat).
	PlanCached bool
	// Truncated reports a streaming query stopped early at
	// QueryOptions.Limit, so the answer may be a proper prefix of the
	// full answer set. Truncated
	// answers are never admitted to (or refreshed into) the cache.
	Truncated bool
}

// QueryOptions tunes one query execution. The zero value is the
// normal path: cache on, verification parallelism as configured.
type QueryOptions struct {
	// BypassCache answers the query by pure Method M verification over
	// the live snapshot: no consistency sync, no hit discovery, no
	// admission. The answer is sound by construction (every candidate
	// is tested), which is what makes cache bypass a safe degradation
	// step when the consistency machinery is backlogged.
	BypassCache bool
	// MaxVerifyParallelism, when > 0, caps the verification worker pool
	// below the runtime's configured parallelism — the pressure
	// controller's first degradation step.
	MaxVerifyParallelism int
	// Limit, when > 0, streams verification: candidates are examined in
	// ascending id order, interleaved with the sure positives of formula
	// (1), and the query returns as soon as Limit answers are known —
	// the answer is then exactly the Limit smallest ids of the full
	// answer set. Stats.Truncated reports whether anything was cut; a
	// truncated answer is not admitted to the cache. 0 keeps the default
	// exact-answer mode. Streaming verification is sequential: a Limit
	// disables the intra-query worker pool for this query.
	Limit int
	// TraceID, when non-zero, is the sampled distributed trace this
	// query belongs to; the stage histograms cite it as their exemplar.
	TraceID uint64
}

// CancelError reports a query abandoned at a cooperative cancellation
// checkpoint, naming the stage that observed the cancelled context.
type CancelError struct {
	Stage string // "sync", "hit" or "verify" (the serving layer adds "queue")
	Err   error  // ctx.Err(): Canceled or DeadlineExceeded
}

func (e *CancelError) Error() string {
	return fmt.Sprintf("core: query cancelled during %s: %v", e.Stage, e.Err)
}

func (e *CancelError) Unwrap() error { return e.Err }

// cancelCheckInterval is how many candidates a verification loop tests
// between context checks: frequent enough to bound overrun past a
// deadline to a handful of sub-iso tests, rare enough that the
// non-blocking channel poll never shows up in profiles.
const cancelCheckInterval = 32

// SubgraphQuery answers "which live dataset graphs contain g?".
func (r *Runtime) SubgraphQuery(g *graph.Graph) (*Result, error) {
	return r.process(context.Background(), g, cache.KindSub, QueryOptions{})
}

// SupergraphQuery answers "which live dataset graphs are contained in g?".
func (r *Runtime) SupergraphQuery(g *graph.Graph) (*Result, error) {
	return r.process(context.Background(), g, cache.KindSuper, QueryOptions{})
}

// SubgraphQueryCtx is SubgraphQuery with cooperative cancellation and
// per-query options. Cancellation is checkpoint-based: the query
// returns a *CancelError at the next checkpoint after ctx is done,
// leaving the cache structurally intact (credits already granted to
// hit entries stand — they record pruning work that really happened).
func (r *Runtime) SubgraphQueryCtx(ctx context.Context, g *graph.Graph, opt QueryOptions) (*Result, error) {
	return r.process(ctx, g, cache.KindSub, opt)
}

// SupergraphQueryCtx is SupergraphQuery with cooperative cancellation
// and per-query options.
func (r *Runtime) SupergraphQueryCtx(ctx context.Context, g *graph.Graph, opt QueryOptions) (*Result, error) {
	return r.process(ctx, g, cache.KindSuper, opt)
}

func (r *Runtime) process(ctx context.Context, g *graph.Graph, kind cache.Kind, opt QueryOptions) (*Result, error) {
	if g == nil {
		return nil, errors.New("core: nil query graph")
	}
	if err := ctx.Err(); err != nil {
		return nil, &CancelError{Stage: "sync", Err: err}
	}
	start := time.Now()
	st := QueryStats{Kind: kind}
	useCache := r.cache != nil && !opt.BypassCache
	st.CacheBypassed = r.cache != nil && opt.BypassCache

	// Planning: resolve (or reuse) the compiled plan for this query. The
	// plan carries the fingerprint and the query's two Method M matchers,
	// which hit discovery and verification share, so a plan-cache hit
	// skips every per-query compilation below. Sound for bypassed queries
	// too: plan artifacts are pure compile state, independent of cache
	// contents.
	pt0 := time.Now()
	plan := r.planner.planFor(g, kind, &st)
	st.PlanTime = time.Since(pt0)
	st.PlanAlgorithm = r.planner.algo.Name()

	// Consistency point: reconcile cache with the dataset log (§4: the
	// Dataset Manager first identifies whether the dataset has changed;
	// if so the Cache Validator is triggered). A bypassed query skips
	// it: the log suffix keeps accumulating and the next cached query
	// reconciles the whole of it.
	if useCache {
		r.syncCache(&st)
	}

	live := r.ds.LiveSnapshot()
	st.CandidatesBefore = live.Count()

	var (
		direct     []*cache.Entry // entries whose valid positives transfer to g
		restrict   []*cache.Entry // entries bounding g's possible answers
		iso        *cache.Entry   // an entry isomorphic to g, if discovered
		answerSure *bitset.Set    // Answer_sub(g) of formula (1)
		csm        *bitset.Set    // the candidate set, pruned from CS_M(g)
	)
	if !useCache {
		csm = live.Clone() // CS_M(g): Method M tests the whole dataset
	} else {
		// A repeat whose plan remembers a resident, fully valid
		// isomorphic entry goes straight to it: the exact-hit branch
		// below reads only iso, so the scan and its relation replay
		// would be wasted. Any other query scans and re-arms the memo,
		// which also drops a retired entry.
		ht0 := time.Now()
		var exact bool
		if e := plan.iso; e != nil && e.Resident() && e.FullyValid(live) {
			iso, exact = e, true
			st.HitCandidates, st.IsoHits, st.ContainingHits, st.ContainedHits = 1, 1, 1, 1
		} else {
			direct, restrict, iso = r.findHits(plan, &st)
			plan.iso = iso
			exact = iso != nil && iso.FullyValid(live)
		}
		st.HitTime = time.Since(ht0)

		// §6.3 optimal case 1: isomorphic hit. Equal vertex and edge
		// counts plus one-directional containment force an isomorphism,
		// so if the entry is fully valid its cached answer (restricted
		// to live graphs) is g's answer.
		if exact {
			st.ExactHit = true
			iso.Credit(st.CandidatesBefore, r.cache.Tick())
			ans := iso.Answer.Clone()
			ans.And(live)
			if opt.Limit > 0 {
				ans = streamClip(ans, opt, &st)
			}
			st.TestsSaved = st.CandidatesBefore
			return r.finish(g, kind, ans, live, iso, direct, restrict, true, opt.TraceID, start, &st)
		}

		// §6.3 optimal case 2: certain-empty answer. A restrict-side hit
		// with no (still-live) positive and full validity proves the
		// answer empty: any positive for g would imply one for e.Query.
		for _, e := range restrict {
			if e.FullyValid(live) && !e.Answer.Intersects(live) {
				st.EmptyShortcut = true
				e.Credit(st.CandidatesBefore, r.cache.Tick())
				st.TestsSaved = st.CandidatesBefore
				return r.finish(g, kind, bitset.New(0), live, iso, direct, restrict, true, opt.TraceID, start, &st)
			}
		}

		// CS_M(g), cloned only now: neither shortcut above needs it.
		csm = live.Clone()

		// Formulas (1)+(2): sure positives from direct hits — only
		// dataset graphs that are both answered and still valid
		// transfer, and the sure positives need no test. Pruning runs
		// incrementally so each entry is credited with its *marginal*
		// contribution: the tests it spared beyond what earlier hits
		// already spared. (Crediting every entry against the unpruned
		// set double-counts overlapping hits, inflating R and skewing
		// the PIN/PINC/HD eviction signal; with marginal credits the
		// per-query credit sum never exceeds CandidatesBefore.)
		answerSure = bitset.New(st.CandidatesBefore)
		for _, e := range direct {
			va := e.ValidAnswer()
			va.And(live)
			e.Credit(va.IntersectionCount(csm), r.cache.Tick())
			answerSure.Or(va)
			csm.AndNot(va)
		}

		// Formulas (4)+(5): every restrict hit bounds the candidate set
		// by complement(CGvalid) ∪ Answer — graphs validly *not* related
		// to the cached query cannot relate to g either. Marginal
		// crediting again: each entry is credited with the candidates it
		// removed from the already-pruned set, not with its pruning
		// power against the whole dataset.
		for _, e := range restrict {
			pa := e.PossibleAnswer(live)
			before := csm.Count()
			csm.And(pa)
			e.Credit(before-csm.Count(), r.cache.Tick())
		}
	}

	// Cancellation checkpoint between hit discovery and verification:
	// abandoning here costs nothing — credits already granted record
	// pruning work that really happened, and no admission has run.
	if err := ctx.Err(); err != nil {
		return nil, &CancelError{Stage: "hit", Err: err}
	}

	// Verification: Method M sub-iso tests over the pruned candidate set,
	// through the compiled matcher and (when configured) the intra-query
	// worker pool, plus formula (3): answer = verified ∪ sure positives.
	answer, err := r.verify(ctx, plan, answerSure, csm, &st, opt)
	if err != nil {
		return nil, err
	}
	// Feed the per-test cost estimator only from samples that measure
	// what it models: bypassed queries run outside the cache books, and
	// tiny candidate sets are dominated by fixed per-query overhead
	// (matcher compile, pool fan-out), so both would skew the costEst
	// used for HD/PINC admission scoring.
	if !st.CacheBypassed && st.SubIsoTests >= minCostSampleTests {
		r.avgTestCost.Add(st.VerifyCPUTime.Seconds() / float64(st.SubIsoTests))
	}
	return r.finish(g, kind, answer, live, iso, direct, restrict, useCache, opt.TraceID, start, &st)
}

// minVerifyChunk is the fewest candidates worth handing one verification
// worker: below this, goroutine spawn and bitset merge outweigh the tests.
const minVerifyChunk = 8

// verify runs Method M over the pruned candidate set csm through the
// plan's verifier and returns the answer, csm's positives plus the sure
// positives of formula (1) (formula (3); sure is nil without a cache).
// Every path is one or more walkCandidates runs:
//   - full: one walk over csm, the sure positives added afterwards;
//   - streamed (opt.Limit > 0): one walk over csm ∪ sure in id order,
//     sure ids emitted untested, stopping at the Limit-th answer. So a
//     truncated answer is exactly the smallest ids of the full one.
//     Answers must come out in order, so it never uses the pool;
//   - pooled: when r.verifyPar and the candidate count allow, contiguous
//     chunks of csm walked concurrently, each worker on its own fork of
//     the verifier (own scratch, shared compiled artifacts). The chunks
//     partition the ids, so the union is exactly the sequential answer.
//
// A cancelled query returns *CancelError with stage "verify"; partial
// answers are discarded.
func (r *Runtime) verify(ctx context.Context, pl *queryPlan, sure, csm *bitset.Set, st *QueryStats, opt QueryOptions) (*bitset.Set, error) {
	count := csm.Count()
	st.TestsSaved = st.CandidatesBefore - count
	workers := r.verifyPar
	if opt.MaxVerifyParallelism > 0 && workers > opt.MaxVerifyParallelism {
		workers = opt.MaxVerifyParallelism
	}
	if most := (count + minVerifyChunk - 1) / minVerifyChunk; workers > most {
		workers = most
	}
	n := st.CandidatesBefore
	if count == 0 && opt.Limit == 0 {
		answer := bitset.New(n)
		if sure != nil {
			answer.Or(sure)
		}
		return answer, nil
	}
	done := ctx.Done()
	var runs []verifyRun
	vt0 := time.Now()
	switch {
	case opt.Limit > 0:
		cands := csm
		if sure != nil {
			cands = csm.Clone()
			cands.Or(sure) // disjoint: the pruner removed sure ids from csm
		}
		runs = []verifyRun{r.walkCandidates(done, pl.verifier(), cands, sure, 0, cands.Len(), opt.Limit, n)}
		sure = nil // the walk emitted the sure positives it reached
	case workers == 1:
		runs = []verifyRun{r.walkCandidates(done, pl.verifier(), csm, nil, 0, csm.Len(), 0, n)}
	default:
		// Chunk w starts at csm's (w·count/workers)-th id.
		bounds := make([]int, workers+1)
		bounds[workers] = csm.Len()
		rank, next := 0, 1
		csm.ForEach(func(id int) bool {
			if rank == next*count/workers {
				bounds[next] = id
				next++
			}
			rank++
			return next < workers
		})
		runs = make([]verifyRun, workers)
		var wg sync.WaitGroup
		for w := range runs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				runs[w] = r.walkCandidates(done, pl.verifier().Fork(), csm, nil, bounds[w], bounds[w+1], 0, n)
			}()
		}
		wg.Wait()
	}
	st.VerifyTime = time.Since(vt0)
	st.VerifyWorkers = len(runs)
	// Book every run before deciding the outcome: a cancelled worker
	// still burned CPU up to its checkpoint, and verify_cpu_sec must
	// account for all of it — under deadline pressure (exactly when
	// operators read this gauge) returning at the first cancelled worker
	// would silently drop the busy time of every worker after it.
	cancelled := false
	for _, run := range runs {
		st.SubIsoTests += run.tests
		st.SearchStates += run.states
		st.VerifyCPUTime += run.busy
		st.Truncated = st.Truncated || run.stopped
		cancelled = cancelled || run.cancelled
	}
	if cancelled {
		return nil, &CancelError{Stage: "verify", Err: ctx.Err()}
	}
	answer := runs[0].out
	for _, run := range runs[1:] {
		answer.Or(run.out)
	}
	if sure != nil {
		answer.Or(sure)
	}
	return answer, nil
}

// verifyRun is what one walkCandidates call did.
type verifyRun struct {
	out           *bitset.Set // the answers it found or emitted
	tests, states int         // Method M tests run and search states they explored
	busy          time.Duration
	// stopped reports a stop at the limit, cancelled one at a checkpoint.
	stopped, cancelled bool
}

// walkCandidates is the one candidate loop behind full, streamed and
// pooled verification. It visits cands' ids in [lo, hi) in ascending
// order, tests each with m and collects the positives into a fresh
// bitset sized for n ids. An id in sure (nil for none) is emitted
// without a test. The walk stops once limit answers are out (0: no
// limit). Every cancelCheckInterval tests it polls done, a non-blocking
// select on a channel that is nil for context.Background, so the
// fault-free path pays one predictable branch.
//
// Stopping at the limit is conservative: a stop at the very last
// candidate could still have produced the complete answer, but proving
// that would mean testing the remainder — exactly what a limit avoids.
// SubIsoTests then counts only the tests run, so CandidatesBefore =
// SubIsoTests + TestsSaved does not hold for a truncated query.
func (r *Runtime) walkCandidates(done <-chan struct{}, m *subiso.Matcher, cands, sure *bitset.Set, lo, hi, limit, n int) verifyRun {
	t0, s0 := time.Now(), m.States()
	run := verifyRun{out: bitset.New(n)}
	emitted := 0
	cands.ForEach(func(id int) bool {
		if id < lo {
			return true
		}
		if id >= hi {
			return false
		}
		if sure == nil || !sure.Get(id) {
			if run.tests++; run.tests%cancelCheckInterval == 0 {
				select {
				case <-done:
					run.cancelled = true
					return false
				default:
				}
			}
			if !m.Contains(r.ds.Graph(id)) {
				return true
			}
		}
		run.out.Set(id)
		if emitted++; emitted == limit {
			run.stopped = true
			return false
		}
		return true
	})
	run.states = m.States() - s0
	run.busy = time.Since(t0)
	return run
}

// streamClip applies streaming semantics to an answer already known in
// full (the §6.3 isomorphic-hit shortcut): keep the opt.Limit smallest
// ids. Truncated is set only when ids were actually
// withheld, so a limit landing exactly on the final answer stays
// complete — and therefore cache-refresh eligible.
func streamClip(ans *bitset.Set, opt QueryOptions, st *QueryStats) *bitset.Set {
	total := ans.Count()
	out := bitset.New(st.CandidatesBefore)
	emitted := 0
	ans.ForEach(func(id int) bool {
		out.Set(id)
		emitted++
		return emitted < opt.Limit
	})
	if emitted < total {
		st.Truncated = true
	}
	return out
}

// finish feeds the executed query back to the Cache Manager (overhead),
// closes the books on st, and folds it into the runtime metrics.
//
// Admission control dedupes against isomorphic entries: if the query is
// isomorphic to a cached one, that entry's answer snapshot and validity
// indicator are refreshed in place (it now reflects the just-executed,
// fully valid fact) instead of admitting a duplicate — duplicates would
// crowd the fixed-capacity cache without adding pruning power.
// A bypassed query (admit == false) skips the Cache Manager entirely:
// its answer was computed without consulting cache state, so neither
// refreshing an entry nor admitting a new one would be justified by a
// classification that never ran. A truncated streaming answer is
// likewise never admitted or refreshed: it may be a proper prefix of the
// true answer set, and the cache must only ever hold exact facts.
func (r *Runtime) finish(g *graph.Graph, kind cache.Kind, answer, live *bitset.Set, iso *cache.Entry, direct, restrict []*cache.Entry, admit bool, traceID uint64, start time.Time, st *QueryStats) (*Result, error) {
	if admit && r.cache != nil && !st.Truncated {
		at0 := time.Now()
		if iso != nil {
			// Through the cache so the entry's Seq and recency follow
			// the rewritten Answer/Valid bitsets.
			r.cache.RefreshEntry(iso, answer, live)
		} else {
			costEst := r.avgTestCost.Mean()
			if st.SubIsoTests > 0 {
				// CPU time, not wall: the per-test cost estimate must not
				// shrink just because verification ran on more workers.
				costEst = st.VerifyCPUTime.Seconds() / float64(st.SubIsoTests)
			}
			if costEst <= 0 {
				costEst = 1e-6 // neutral placeholder before first measurement
			}
			e := cache.NewEntry(g, kind, answer, live, r.cache.AppliedSeq(), costEst)
			// Hand the hit classification over for the cache's
			// relation graph: which cached queries contain g, and which
			// g contains. For a subgraph query those are the direct and
			// restrict hits respectively; for a supergraph query the
			// roles are inverted. Non-nil empty slices mean "known, no
			// hits" — only a nil marks relations unknown.
			containing, contained := direct, restrict
			if kind == cache.KindSuper {
				containing, contained = restrict, direct
			}
			if containing == nil {
				containing = []*cache.Entry{}
			}
			if contained == nil {
				contained = []*cache.Entry{}
			}
			r.cache.AddWithRelations(e, containing, contained)
		}
		st.Overhead += time.Since(at0)
	}
	st.QueryTime = time.Since(start) - st.Overhead
	r.m.fold(st)
	r.hists.observe(st, traceID)
	return &Result{Answer: answer, Stats: *st}, nil
}

// syncCache reconciles the cache with the dataset log: EVI purges, CON
// analyzes the log suffix (Algorithm 1) and refreshes validity indicators
// (Algorithm 2). The records read are then dropped from the log. The
// time spent is the ConsistencyTime share of Overhead.
func (r *Runtime) syncCache(st *QueryStats) {
	if r.cache == nil {
		return
	}
	t0 := time.Now()
	defer func() {
		d := time.Since(t0)
		st.ConsistencyTime = d
		st.Overhead += d
	}()
	recs := r.ds.RecordsSince(r.cache.AppliedSeq())
	if len(recs) == 0 {
		return
	}
	seq := recs[len(recs)-1].Seq
	if r.cache.Model() == cache.ModelEVI {
		r.cache.Purge()
		r.cache.SetAppliedSeq(seq)
	} else {
		r.cache.Validate(dataset.Analyze(recs), seq)
		r.cache.NoteValidation()
	}
	r.ds.TrimLog(seq)
}

// Sync reconciles the cache with the dataset log outside the query path —
// an EVI purge or a CON validation sweep, exactly as syncCache would run
// it before the next query. Serving front-ends use it as the
// update-application hook: calling Sync right after applying a dataset
// operation moves the consistency work off the query's critical path (the
// next query finds an already reconciled cache and spends ~zero
// ConsistencyTime). It returns the time spent; the time is not folded
// into the runtime metrics since no query triggered it. Like every
// Runtime method, Sync must be externally serialized.
func (r *Runtime) Sync() time.Duration {
	var st QueryStats
	r.syncCache(&st)
	return st.ConsistencyTime
}

// CacheStats snapshots the cache state and lifetime counters (the zero
// Stats when caching is disabled).
func (r *Runtime) CacheStats() cache.Stats {
	if r.cache == nil {
		return cache.Stats{}
	}
	return r.cache.Stats()
}

// findHits runs the GC+sub and GC+super processors: it discovers the
// same-kind cached entries related to g and classifies each as a direct
// hit (its valid positives transfer to g) or a restrict hit (it bounds
// g's possible answers), using the fingerprint prefilter before the
// decisive query-to-query sub-iso test.
//
// For a subgraph query, direct hits are cached queries *containing* g
// (g ⊆ g′ ⇒ g′'s positives are g's positives) and restrict hits are
// cached queries *contained in* g (g″ ⊆ g ⇒ g cannot match where g″
// validly failed). For a supergraph query the roles are exactly inverted,
// as §6's "supergraph queries follow the exact inverse logic".
//
// Discovery walks the cache in ForEach order in two steps. First an
// isomorphism probe: an entry of equal size whose fingerprint subsumes
// g's both ways gets one containment test. If one proves
// isomorphic, its memoized relation sets — recorded at admission, when
// the query behind it was classified against every entry — replay the
// full hit classification with zero query-to-query sub-iso tests. Under
// the Zipf workloads of the paper most queries are repeats, so most hit
// discovery collapses to this path. Otherwise every same-kind entry is
// classified, skipping the containment test in each direction its
// fingerprint rules out, and both tests on an entry the probe rejected.
// The differential property test pins classification, credit order and
// iso selection to the prefilter-free reference in findhits_test.go.
func (r *Runtime) findHits(pl *queryPlan, st *QueryStats) (direct, restrict []*cache.Entry, iso *cache.Entry) {
	kind, qf := pl.kind, pl.qf
	h := &hitClassifier{pl: pl, st: st}
	st.HitScanned = r.cache.Size() + r.cache.WindowLen()
	probed := 0
	var isoBase *cache.Entry
	r.cache.ForEach(func(e *cache.Entry) bool {
		if e.Kind != kind || !qf.SameSize(e.Fp) || !qf.SubsumedBy(e.Fp) || !e.Fp.SubsumedBy(qf) {
			return true
		}
		probed++
		// Equal size and one-directional containment force isomorphism.
		if pl.gAsPattern.Contains(e.Query) {
			isoBase = e
			return false
		}
		return true
	})
	if isoBase != nil {
		if n, ok := r.cache.ForEachRelated(isoBase, func(e *cache.Entry, contains, containedIn bool) bool {
			h.record(e, contains, containedIn)
			return true
		}); ok {
			// isoBase was examined by the probe and revisited by
			// ForEachRelated; count it once.
			st.HitCandidates = probed + n - 1
			return h.direct, h.restrict, h.iso
		}
	}
	// Every probed entry passes the prefilter again below, so counting
	// only this walk keeps HitCandidates a distinct-entry count. The
	// entries the probe rejected, those before isoBase (all of them when
	// it is nil), are unrelated to g: with equal size, containment either
	// way would be the isomorphism the probe ruled out. They are counted
	// but not tested again.
	rejected := true
	r.cache.ForEach(func(e *cache.Entry) bool {
		if e.Kind != kind {
			return true
		}
		if e == isoBase {
			rejected = false
		}
		mayContain, mayBeContained := qf.SubsumedBy(e.Fp), e.Fp.SubsumedBy(qf)
		if !mayContain && !mayBeContained {
			return true
		}
		st.HitCandidates++
		if rejected && qf.SameSize(e.Fp) && mayContain && mayBeContained {
			return true
		}
		h.visit(e, mayContain, mayBeContained)
		return true
	})
	return h.direct, h.restrict, h.iso
}

// hitClassifier applies the per-entry hit classification shared by
// findHits and its prefilter-free test reference. mayContain and
// mayBeContained say which containment tests to run: findHits passes
// the fingerprint verdicts (false means the relation is guaranteed
// absent), the reference passes true for both.
type hitClassifier struct {
	// pl supplies the query's fingerprint and its two compiled matchers,
	// amortized over the whole pass (and over every repeat the plan
	// serves).
	pl *queryPlan
	st *QueryStats

	direct, restrict []*cache.Entry
	iso              *cache.Entry
}

func (h *hitClassifier) visit(e *cache.Entry, mayContain, mayBeContained bool) {
	// The decisive query-to-query tests, in the directions the caller
	// left open; a closed direction is guaranteed absent. An isomorphic
	// entry is *both* a containing and a contained hit, and its second
	// test is skipped: same size plus one-directional containment forces
	// isomorphism.
	isContaining := mayContain && h.pl.gAsPattern.Contains(e.Query)
	isContained := mayBeContained &&
		((isContaining && e.Fp.SameSize(h.pl.qf)) || h.pl.gAsTarget.Contains(e.Query))
	h.record(e, isContaining, isContained)
}

// record books one classified entry; the relation replay calls it
// directly with the relations recorded at admission, skipping the tests
// in visit.
func (h *hitClassifier) record(e *cache.Entry, isContaining, isContained bool) {
	if isContaining && isContained {
		h.st.IsoHits++
		if h.iso == nil {
			h.iso = e
		}
	}
	if isContaining {
		h.st.ContainingHits++
		if h.pl.kind == cache.KindSub {
			h.direct = append(h.direct, e)
		} else {
			h.restrict = append(h.restrict, e)
		}
	}
	if isContained {
		h.st.ContainedHits++
		if h.pl.kind == cache.KindSub {
			h.restrict = append(h.restrict, e)
		} else {
			h.direct = append(h.direct, e)
		}
	}
}

// ForEachCacheEntry exposes a read-only view of the cache contents
// (window first, then admitted entries) for inspection tooling: the
// public facade's CacheEntries and the consistency example use it to
// show CGvalid evolving, mirroring the paper's Figure 2.
func (r *Runtime) ForEachCacheEntry(fn func(query, kind string, answer, valid []int, sparedTests float64)) {
	if r.cache == nil {
		return
	}
	r.cache.ForEach(func(e *cache.Entry) bool {
		fn(e.Query.Name(), e.Kind.String(), e.Answer.Indices(), e.Valid.Indices(), e.R)
		return true
	})
}

// String describes the runtime configuration.
func (r *Runtime) String() string {
	mode := "no-cache"
	if r.cache != nil {
		mode = fmt.Sprintf("%s/%s cap=%d win=%d",
			r.cache.Model(), r.cache.Config().Policy, r.cache.Config().Capacity, r.cache.Config().WindowSize)
	}
	return fmt.Sprintf("Runtime(M=%s %s)", r.planner.algo.Name(), mode)
}
