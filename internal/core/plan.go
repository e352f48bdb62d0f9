package core

import (
	"gcplus/internal/cache"
	"gcplus/internal/feature"
	"gcplus/internal/ftv"
	"gcplus/internal/graph"
	"gcplus/internal/stats"
	"gcplus/internal/subiso"
)

// DefaultPlanCacheSize is the compiled-plan cache capacity used when
// Options.EnablePlanner is set and Options.PlanCacheSize is not
// positive. Plans are small (a few compiled matchers plus a verdict
// memo), so the default comfortably covers the repeat sets of the
// paper's Zipf workloads.
const DefaultPlanCacheSize = 256

// minCostSampleTests is the fewest Method M tests a query must execute
// before its per-test cost is admitted as an estimator sample: below
// this, fixed per-query overhead (matcher compile, pool fan-out)
// dominates the measurement and would skew both the HD/PINC admission
// costEst and the planner's algorithm choice.
const minCostSampleTests = 8

// minPlanSamples is how many cost samples every candidate algorithm
// must accumulate (per query kind) before the planner trusts the means:
// until then it round-robins the least-sampled algorithm to explore.
const minPlanSamples = 3

// seqVerifyCost is the estimated fixed cost (seconds) of fanning the
// verification pool out and joining it. When the measured per-test cost
// says the whole candidate set verifies in less than this, the planner
// forces sequential verification — parallelism would only add latency.
const seqVerifyCost = 200e-6

// maxPlanMemo bounds a plan's containment-verdict memo; on overflow the
// memo is reset wholesale (verdicts are recomputable facts, never
// required for correctness).
const maxPlanMemo = 2048

// planner chooses a per-query execution plan from measured per-kind,
// per-algorithm cost moments, and caches compiled plans so isomorphic
// repeats skip compilation and planning entirely. It is owned by a
// Runtime and shares its single-threaded discipline.
type planner struct {
	hitAlgo subiso.Algorithm
	// algos are the candidate Method M algorithms, the configured one
	// first (so the planner degenerates to the configured behavior until
	// cost samples justify a switch). All candidates are exact, which is
	// why algorithm choice can never change an answer.
	algos []subiso.Algorithm
	// cost holds per-test CPU-seconds moments indexed [kindIdx][algoIdx].
	cost [2][]stats.Running

	// cacheCap bounds byKey (≥ 1).
	cacheCap int
	// byKey caches plans under the canonical plan key; order is its
	// FIFO eviction queue (plan compilation is cheap enough that smarter
	// eviction buys nothing measurable).
	byKey map[uint64]*queryPlan
	order []uint64
	// ptr short-circuits the canonical-key computation for repeated
	// query *pointers*, per kind (the same graph value may be issued as
	// both a sub- and a supergraph query). Graphs are immutable once
	// published, so pointer identity is a sound memo key; the map is
	// reset wholesale when it outgrows the plan cache.
	ptr [2]map[*graph.Graph]*queryPlan
}

// queryPlan is one compiled plan: everything per-query compilation used
// to produce, reusable across isomorphic repeats.
type queryPlan struct {
	query *graph.Graph
	kind  cache.Kind

	// Hit-discovery artifacts (always compiled with the hit algorithm).
	qf         *feature.Fingerprint
	gAsPattern *subiso.Matcher // query ⊆ cached query?
	gAsTarget  *subiso.Matcher // cached query ⊆ query?

	// verify is the Method M matcher for the chosen algorithm; algoIdx
	// indexes planner.algos and the cost moments.
	verify  *subiso.Matcher
	algoIdx int

	// memo caches query-to-query containment verdicts (see the
	// hitClassifier memo bits), keyed by cached-query graph pointer.
	memo map[*graph.Graph]uint8

	// qsigs memoizes the query's ftv path signatures at the cache query
	// index's path length (cache.QueryPathLen). Signatures are a pure
	// function of graph structure, so they hold for every structurally
	// equal repeat the plan serves — extracting them is the single most
	// expensive per-query step of indexed hit discovery, which a plan
	// hit thereby skips.
	qsigs []string
}

// sigs returns the query's path signatures, extracting them on first use.
func (pl *queryPlan) sigs() []string {
	if pl.qsigs == nil {
		pl.qsigs = ftv.PathSignatures(pl.query, cache.QueryPathLen)
	}
	return pl.qsigs
}

// ensureMemo returns the plan's verdict memo, allocating it lazily and
// resetting it when it outgrows maxPlanMemo.
func (pl *queryPlan) ensureMemo() map[*graph.Graph]uint8 {
	if pl.memo == nil || len(pl.memo) > maxPlanMemo {
		pl.memo = make(map[*graph.Graph]uint8, 32)
	}
	return pl.memo
}

func newPlanner(algo, hitAlgo subiso.Algorithm, cacheCap int) *planner {
	p := &planner{hitAlgo: hitAlgo, cacheCap: cacheCap}
	p.algos = append(p.algos, algo)
	for _, cand := range subiso.PlannerAlgorithms() {
		if cand.Name() != algo.Name() {
			p.algos = append(p.algos, cand)
		}
	}
	for k := range p.cost {
		p.cost[k] = make([]stats.Running, len(p.algos))
	}
	p.byKey = make(map[uint64]*queryPlan, cacheCap)
	p.ptr[0] = make(map[*graph.Graph]*queryPlan)
	p.ptr[1] = make(map[*graph.Graph]*queryPlan)
	return p
}

func kindIdx(k cache.Kind) int {
	if k == cache.KindSub {
		return 0
	}
	return 1
}

// planFor returns the plan for (g, kind), reusing a cached one when the
// query is a pointer-identical or structurally equal repeat. The plan
// key is a digest, not a proof, so a key hit is confirmed structurally;
// a colliding non-equal graph is treated as a miss and replaces the
// slot (its artifacts would test against the wrong vertex numbering).
func (p *planner) planFor(g *graph.Graph, kind cache.Kind, st *QueryStats) *queryPlan {
	ki := kindIdx(kind)
	if pl, ok := p.ptr[ki][g]; ok {
		st.PlanCached = true
		p.retune(pl)
		return pl
	}
	key := planKey(g, kind)
	if pl, ok := p.byKey[key]; ok && graphsEqual(pl.query, g) {
		st.PlanCached = true
		p.memoizePtr(ki, g, pl)
		p.retune(pl)
		return pl
	}
	pl := p.compile(g, kind)
	p.store(key, pl)
	p.memoizePtr(ki, g, pl)
	return pl
}

func (p *planner) compile(g *graph.Graph, kind cache.Kind) *queryPlan {
	idx := p.chooseAlgo(kindIdx(kind))
	return &queryPlan{
		query:      g,
		kind:       kind,
		qf:         feature.Of(g),
		gAsPattern: subiso.CompileSub(g, p.hitAlgo),
		gAsTarget:  subiso.CompileSuper(g, p.hitAlgo),
		verify:     compileVerify(g, kind, p.algos[idx]),
		algoIdx:    idx,
	}
}

// compileVerify compiles the Method M matcher in the direction the query
// kind needs: for a subgraph query g is the pattern, for a supergraph
// query g is the target.
func compileVerify(g *graph.Graph, kind cache.Kind, algo subiso.Algorithm) *subiso.Matcher {
	if kind == cache.KindSub {
		return subiso.CompileSub(g, algo)
	}
	return subiso.CompileSuper(g, algo)
}

// chooseAlgo picks the algorithm index for one query kind: while any
// candidate is under-sampled the least-sampled one runs next
// (exploration; ties keep the earliest index, so choice is deterministic
// and zero-test workloads never flip matchers), after which the lowest
// measured mean per-test cost wins.
func (p *planner) chooseAlgo(ki int) int {
	least, leastN := 0, p.cost[ki][0].N()
	for i := 1; i < len(p.algos); i++ {
		if n := p.cost[ki][i].N(); n < leastN {
			least, leastN = i, n
		}
	}
	if leastN < minPlanSamples {
		return least
	}
	best, bestMean := 0, p.cost[ki][0].Mean()
	for i := 1; i < len(p.algos); i++ {
		if m := p.cost[ki][i].Mean(); m < bestMean {
			best, bestMean = i, m
		}
	}
	return best
}

// retune re-evaluates the algorithm choice for a cached plan: cost
// moments accumulated since it was compiled may have crowned a different
// algorithm, in which case only the verify matcher is recompiled (the
// hit-discovery artifacts and memo are algorithm-independent).
func (p *planner) retune(pl *queryPlan) {
	if idx := p.chooseAlgo(kindIdx(pl.kind)); idx != pl.algoIdx {
		pl.algoIdx = idx
		pl.verify = compileVerify(pl.query, pl.kind, p.algos[idx])
	}
}

// note records one measured per-test cost sample (already gated by the
// caller: no bypass runs, no tiny candidate sets).
func (p *planner) note(kind cache.Kind, algoIdx int, perTest float64) {
	p.cost[kindIdx(kind)][algoIdx].Add(perTest)
}

// parallelCap returns a cap on the verification worker pool for a
// candidate set of the given size: 1 (force sequential) when the
// measured per-test cost says the whole set verifies in less than the
// pool's fan-out/join overhead, 0 (no planner opinion) otherwise.
func (p *planner) parallelCap(kind cache.Kind, algoIdx, count int) int {
	rs := &p.cost[kindIdx(kind)][algoIdx]
	if rs.N() < minPlanSamples {
		return 0
	}
	if rs.Mean()*float64(count) < seqVerifyCost {
		return 1
	}
	return 0
}

// store inserts a freshly compiled plan under its canonical key,
// evicting FIFO at capacity. Replacing an existing key keeps its
// original queue position (keys appear in order at most once).
func (p *planner) store(key uint64, pl *queryPlan) {
	if _, exists := p.byKey[key]; !exists {
		for len(p.byKey) >= p.cacheCap && len(p.order) > 0 {
			delete(p.byKey, p.order[0])
			p.order = p.order[1:]
		}
		p.order = append(p.order, key)
	}
	p.byKey[key] = pl
}

// memoizePtr records the pointer → plan shortcut, resetting the map
// wholesale once it outgrows the plan cache (long-lived servers see
// unbounded distinct query pointers; the canonical-key path backstops
// any reset).
func (p *planner) memoizePtr(ki int, g *graph.Graph, pl *queryPlan) {
	if len(p.ptr[ki]) >= 4*p.cacheCap {
		p.ptr[ki] = make(map[*graph.Graph]*queryPlan, p.cacheCap)
	}
	p.ptr[ki][g] = pl
}

// planKey derives the canonical plan-cache key: an FNV-1a digest of the
// query kind and the graph's exact structure (vertex count, per-vertex
// label + sorted neighbor list, edge count). Two graphs share a key iff
// they are structurally equal under the same vertex numbering — which is
// precisely the condition for reusing compiled matchers verbatim, so the
// key targets exactly the repeats the plan cache can serve.
//
// The key is a digest, not a proof: graphsEqual arbitrates every key hit
// before a plan is reused, so an FNV collision degrades to a miss, never
// to a wrong plan. The full isomorphism-invariant ftv.CanonicalKey was
// deliberately rejected here — enumerating path signatures costs ~100µs
// per 22-vertex query (measured), which is the same order as serving the
// query, while an isomorphic-but-renumbered repeat would fail the
// graphsEqual arbitration anyway (its compiled matchers index the wrong
// vertices). The O(V+E) digest keeps the lookup three orders of
// magnitude cheaper and hits the exact same reusable set.
func planKey(g *graph.Graph, kind cache.Kind) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(x uint64) {
		h ^= x
		h *= prime64
	}
	if kind == cache.KindSub {
		mix(1)
	} else {
		mix(2)
	}
	mix(uint64(g.NumVertices()))
	mix(uint64(g.NumEdges()))
	for v := 0; v < g.NumVertices(); v++ {
		mix(uint64(g.Label(v)))
		for _, w := range g.Neighbors(v) {
			mix(uint64(w) + 1)
		}
		// Separator so (labels, neighbor runs) parse unambiguously: the
		// vertex boundary itself is part of the digested structure.
		mix(0)
	}
	return h
}

// graphsEqual reports structural equality under the *same* vertex
// numbering — the condition for reusing another graph's compiled
// matchers verbatim. Neighbor lists are sorted by construction, so the
// comparison is a linear scan.
func graphsEqual(a, b *graph.Graph) bool {
	if a == b {
		return true
	}
	if a.NumVertices() != b.NumVertices() || a.NumEdges() != b.NumEdges() {
		return false
	}
	for v := 0; v < a.NumVertices(); v++ {
		if a.Label(v) != b.Label(v) {
			return false
		}
		na, nb := a.Neighbors(v), b.Neighbors(v)
		if len(na) != len(nb) {
			return false
		}
		for i := range na {
			if na[i] != nb[i] {
				return false
			}
		}
	}
	return true
}
