package core

import (
	"gcplus/internal/cache"
	"gcplus/internal/feature"
	"gcplus/internal/graph"
	"gcplus/internal/stats"
	"gcplus/internal/subiso"
)

// planCacheSize is the compiled-plan cache capacity (plans, both query
// kinds combined). Plans are small (a few compiled matchers plus a
// verdict memo), so it comfortably covers the repeat sets of the paper's
// Zipf workloads.
const planCacheSize = 256

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

// hitAlgo decides containment between *query* graphs during hit
// discovery: queries are small, and VF2+ is robustly fast on them. Its
// invocations are GC+ overhead, never counted as Method M sub-iso tests.
var hitAlgo subiso.Algorithm = subiso.VF2Plus{}

// planner resolves every query's execution plan: it chooses the Method M
// algorithm from measured per-kind, per-algorithm cost moments, and caches
// compiled plans so structurally equal repeats skip compilation and
// planning entirely. It is owned by a Runtime and shares its
// single-threaded discipline.
type planner struct {
	// algos are the candidate Method M algorithms: the single pinned one,
	// or subiso.PlannerAlgorithms() when the choice is measured (the
	// first runs until cost samples justify a switch). All candidates
	// are exact, which is why algorithm choice can never change an answer.
	algos []subiso.Algorithm
	// cost holds per-test CPU-seconds moments indexed [kindIdx][algoIdx].
	cost [2][]stats.Running

	// byKey caches at most planCacheSize plans under the canonical plan
	// key; order is its FIFO eviction queue (plan compilation is cheap
	// enough that smarter eviction buys nothing measurable).
	byKey map[uint64]*queryPlan
	order []uint64
}

// queryPlan is one compiled plan: every artifact a query compiles,
// reusable across structurally equal repeats.
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
}

// verdicts returns the plan's verdict memo, resetting it when it has
// outgrown maxPlanMemo.
func (pl *queryPlan) verdicts() map[*graph.Graph]uint8 {
	if len(pl.memo) > maxPlanMemo {
		pl.memo = make(map[*graph.Graph]uint8)
	}
	return pl.memo
}

func newPlanner(algos []subiso.Algorithm) *planner {
	p := &planner{algos: algos, byKey: make(map[uint64]*queryPlan, planCacheSize)}
	for k := range p.cost {
		p.cost[k] = make([]stats.Running, len(algos))
	}
	return p
}

func kindIdx(k cache.Kind) int {
	if k == cache.KindSub {
		return 0
	}
	return 1
}

// planFor returns the plan for (g, kind), reusing a cached one when the
// query is a structurally equal repeat. The plan key is a digest, not a
// proof, so a key hit is confirmed structurally; a colliding non-equal
// graph is treated as a miss and replaces the slot (its artifacts would
// test against the wrong vertex numbering).
func (p *planner) planFor(g *graph.Graph, kind cache.Kind, st *QueryStats) *queryPlan {
	key := planKey(g, kind)
	if pl, ok := p.byKey[key]; ok && graphsEqual(pl.query, g) {
		st.PlanCached = true
		p.retune(pl)
		return pl
	}
	pl := p.compile(g, kind)
	p.store(key, pl)
	return pl
}

func (p *planner) compile(g *graph.Graph, kind cache.Kind) *queryPlan {
	idx := p.chooseAlgo(kindIdx(kind))
	return &queryPlan{
		query:      g,
		kind:       kind,
		qf:         feature.Of(g),
		gAsPattern: subiso.CompileSub(g, hitAlgo),
		gAsTarget:  subiso.CompileSuper(g, hitAlgo),
		verify:     compileVerify(g, kind, p.algos[idx]),
		algoIdx:    idx,
		memo:       make(map[*graph.Graph]uint8),
	}
}

// compileVerify is the one place a Method M matcher is compiled, in the
// direction the kind needs: for a subgraph query (or sub entry under
// repair) "g ⊆ G" — g is the pattern, dataset graphs the targets; for a
// supergraph query "G ⊆ g" — g is the target.
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
		if len(p.byKey) >= planCacheSize {
			delete(p.byKey, p.order[0])
			p.order = p.order[1:]
		}
		p.order = append(p.order, key)
	}
	p.byKey[key] = pl
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
// to a wrong plan. An isomorphism-invariant key would buy nothing: an
// isomorphic-but-renumbered repeat would fail the graphsEqual
// arbitration anyway (its compiled matchers index the wrong vertices),
// and a canonical form built from path signatures was measured at
// ~100µs per 22-vertex query, the order of serving the query. The
// O(V+E) digest hits the exact same reusable set.
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
