package subiso

import "gcplus/internal/graph"

// GraphQL implements the subgraph-matching algorithm of He & Singh
// (SIGMOD 2008), the strongest of the paper's three Method M choices. It
// prunes candidate sets in three stages before searching:
//
//  1. local pruning: candidates must match the label, dominate the degree
//     and contain the vertex's neighbourhood label profile;
//  2. global iterative refinement ("pseudo subgraph isomorphism"): a
//     candidate v for u survives only if the neighbours of u can be
//     injectively matched to distinct neighbours of v that are themselves
//     candidates — a bipartite matching test, iterated to (bounded)
//     fixpoint;
//  3. search-order optimization: vertices are matched in ascending order
//     of candidate-set size, preferring vertices adjacent to the already
//     matched ones.
type GraphQL struct {
	// RefineLevels bounds the number of global-refinement sweeps; the
	// zero value means DefaultRefineLevels. He & Singh observe little
	// gain beyond 2–3 levels.
	RefineLevels int
}

// DefaultRefineLevels is the global-refinement sweep bound used when
// GraphQL.RefineLevels is zero.
const DefaultRefineLevels = 2

// Name implements Algorithm.
func (GraphQL) Name() string { return "GQL" }

// Contains implements Algorithm via a one-shot compile of the pattern;
// callers testing one pattern against many targets should CompileSub once
// and reuse the Matcher instead.
func (a GraphQL) Contains(pattern, target *graph.Graph) bool {
	return CompileSub(pattern, a).Contains(target)
}

// bipartiteMatcher runs Kuhn's augmenting-path maximum matching between a
// pattern vertex's neighbours and a target vertex's neighbours. Buffers
// are reused across calls; stamp-based visited marks avoid clearing.
type bipartiteMatcher struct {
	matchR  []int // target vertex -> pattern-neighbour index, or -1
	matchU  []int // target vertex -> pattern vertex occupying it
	visited []int // stamp per target vertex
	stamp   int
}

// grow extends the matcher's buffers to cover targetVertices vertices,
// retaining state; semiPerfect resets the entries it touches, so the new
// tail needs no initialization. Used by the pooled compiled-matcher
// scratch, where one bipartiteMatcher serves targets of many sizes.
func (m *bipartiteMatcher) grow(targetVertices int) {
	if len(m.matchR) >= targetVertices {
		return
	}
	n := targetVertices - len(m.matchR)
	m.matchR = append(m.matchR, make([]int, n)...)
	m.matchU = append(m.matchU, make([]int, n)...)
	m.visited = append(m.visited, make([]int, n)...)
}

// semiPerfect reports whether every pattern neighbour pn[i] can be matched
// to a distinct target neighbour tv ∈ tn with tv ∈ cand(pn[i]). This is
// GraphQL's "semi-perfect matching" condition.
func (m *bipartiteMatcher) semiPerfect(pn []int32, tn []int32, inCand [][]bool) bool {
	if len(pn) > len(tn) {
		return false
	}
	for _, tv := range tn {
		m.matchR[tv] = -1
	}
	size := 0
	for i, u := range pn {
		m.stamp++
		if m.augment(int(u), i, tn, inCand) {
			size++
		} else {
			return false // matching must cover every pattern neighbour
		}
	}
	return size == len(pn)
}

func (m *bipartiteMatcher) augment(u, ui int, tn []int32, inCand [][]bool) bool {
	for _, tv := range tn {
		if m.visited[tv] == m.stamp || !inCand[u][tv] {
			continue
		}
		m.visited[tv] = m.stamp
		if m.matchR[tv] == -1 {
			m.matchR[tv] = ui
			m.matchU[tv] = u
			return true
		}
		// try to re-augment the current occupant
		if m.augment(m.matchU[tv], m.matchR[tv], tn, inCand) {
			m.matchR[tv] = ui
			m.matchU[tv] = u
			return true
		}
	}
	return false
}
