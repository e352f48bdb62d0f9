package core

import (
	"gcplus/internal/cache"
	"gcplus/internal/feature"
	"gcplus/internal/graph"
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
// dominates the measurement and would skew the HD/PINC admission
// costEst.
const minCostSampleTests = 8

// maxPlanMemo bounds a plan's containment-verdict memo; on overflow the
// memo is reset wholesale (verdicts are recomputable facts, never
// required for correctness).
const maxPlanMemo = 2048

// hitAlgo decides containment between *query* graphs during hit
// discovery: queries are small, and VF2+ is robustly fast on them. Its
// invocations are GC+ overhead, never counted as Method M sub-iso tests.
var hitAlgo subiso.Algorithm = subiso.VF2Plus{}

// planner is the compiled-plan cache: structurally equal repeats reuse
// a compiled plan and skip compilation entirely. It decides nothing —
// every plan verifies with the runtime's one Method M. It is owned by a
// Runtime and shares its single-threaded discipline.
type planner struct {
	// algo is Method M, fixed when the runtime is built. It never
	// changes, which is what lets VerifyRepairs read it off the owner
	// goroutine.
	algo subiso.Algorithm

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

	// verify is the Method M matcher.
	verify *subiso.Matcher

	// memo caches query-to-query containment verdicts (see the
	// hitClassifier memo bits), keyed by cached-query graph pointer.
	memo map[*graph.Graph]uint8

	// iso is the isomorphic entry findHits last returned for this plan,
	// nil when it found none. Isomorphism between immutable graphs does
	// not depend on the dataset, and admission never keeps two
	// isomorphic entries, so while iso is resident it is the entry the
	// scan would find: a fully valid one answers a repeat without hit
	// discovery (Runtime.process).
	iso *cache.Entry
}

// verdicts returns the plan's verdict memo, resetting it when it has
// outgrown maxPlanMemo.
func (pl *queryPlan) verdicts() map[*graph.Graph]uint8 {
	if len(pl.memo) > maxPlanMemo {
		pl.memo = make(map[*graph.Graph]uint8)
	}
	return pl.memo
}

func newPlanner(algo subiso.Algorithm) *planner {
	return &planner{algo: algo, byKey: make(map[uint64]*queryPlan, planCacheSize)}
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
		return pl
	}
	pl := p.compile(g, kind)
	p.store(key, pl)
	return pl
}

func (p *planner) compile(g *graph.Graph, kind cache.Kind) *queryPlan {
	return &queryPlan{
		query:      g,
		kind:       kind,
		qf:         feature.Of(g),
		gAsPattern: subiso.CompileSub(g, hitAlgo),
		gAsTarget:  subiso.CompileSuper(g, hitAlgo),
		verify:     compileVerify(g, kind, p.algo),
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
