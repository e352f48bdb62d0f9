package core

import (
	"gcplus/internal/cache"
	"gcplus/internal/feature"
	"gcplus/internal/graph"
	"gcplus/internal/subiso"
)

// planCacheSize is the compiled-plan cache capacity (plans, both query
// kinds combined). Plans are small (a fingerprint and two compiled
// matchers), so it comfortably covers the repeat sets of the paper's
// Zipf workloads.
const planCacheSize = 256

// minCostSampleTests is the fewest Method M tests a query must execute
// before its per-test cost is admitted as an estimator sample: below
// this, fixed per-query overhead (matcher compile, pool fan-out)
// dominates the measurement and would skew the HD/PINC admission
// costEst.
const minCostSampleTests = 8

// planner is the compiled-plan cache: structurally equal repeats reuse
// a compiled plan and skip compilation entirely. It decides nothing —
// every plan runs the runtime's one Method M. It is owned by a Runtime
// and shares its single-threaded discipline.
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

	qf *feature.Fingerprint

	// The query compiled once in each direction with Method M. Hit
	// discovery tests both ways against cached queries; verification
	// runs the one its kind needs (verifier). Both run on the owner
	// goroutine, one after the other, so they share the scratch.
	gAsPattern *subiso.Matcher // query ⊆ other
	gAsTarget  *subiso.Matcher // other ⊆ query

	// iso is the isomorphic entry findHits last returned for this plan,
	// nil when it found none. Isomorphism between immutable graphs does
	// not depend on the dataset, and admission never keeps two
	// isomorphic entries, so while iso is resident it is the entry the
	// scan would find: a fully valid one answers a repeat without hit
	// discovery (Runtime.process).
	iso *cache.Entry
}

// verifier returns the matcher that verifies the plan's candidates, the
// one compileVerify builds for its kind.
func (pl *queryPlan) verifier() *subiso.Matcher {
	if pl.kind == cache.KindSub {
		return pl.gAsPattern
	}
	return pl.gAsTarget
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
		gAsPattern: compileVerify(g, cache.KindSub, p.algo),
		gAsTarget:  compileVerify(g, cache.KindSuper, p.algo),
	}
}

// compileVerify compiles g with algo in the direction a kind verifies
// in: for a subgraph query (or sub entry under repair) "g ⊆ G" — g is
// the pattern, dataset graphs the targets; for a supergraph query
// "G ⊆ g" — g is the target.
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
