package subiso

import "gcplus/internal/graph"

// VF2 is the vanilla VF2 algorithm (Cordella, Foggia, Sansone, Vento,
// IEEE TPAMI 2004) specialized to the non-induced subgraph isomorphism
// decision problem. The pattern is visited in a connectivity-preserving
// order seeded by vertex index; feasibility combines the core adjacency
// rule with the label and degree checks. It is deliberately the least
// aggressive of the three Method M implementations, mirroring its role in
// the paper's evaluation ("vanilla VF2 ... extensively used in FTV
// methods").
type VF2 struct{}

// Name implements Algorithm.
func (VF2) Name() string { return "VF2" }

// Contains implements Algorithm via a one-shot compile of the pattern;
// callers testing one pattern against many targets should CompileSub once
// and reuse the Matcher instead.
func (VF2) Contains(pattern, target *graph.Graph) bool {
	return CompileSub(pattern, VF2{}).Contains(target)
}

// vf2State is the per-call VF2 search engine behind FindEmbedding and
// CountEmbeddings (decisions go through the compiled Matcher instead).
type vf2State struct {
	p, t   *graph.Graph
	order  []int32
	anchor []int32
	core   []int  // pattern vertex -> target vertex or -1
	used   []bool // target vertex already an image
	// capture, when non-nil, receives a copy of the first full mapping.
	capture *[]int
	// countAll, when true, explores the full tree and tallies embeddings.
	countAll bool
	found    int64
	limit    int64 // stop counting at limit when countAll (0 = no limit)
}

func newVF2State(p, t *graph.Graph) *vf2State {
	order, anchor := fullOrder(p)
	s := &vf2State{
		p:      p,
		t:      t,
		order:  order,
		anchor: anchor,
		core:   make([]int, p.NumVertices()),
		used:   make([]bool, t.NumVertices()),
	}
	for i := range s.core {
		s.core[i] = -1
	}
	return s
}

// match explores depth d of the search tree; it returns true as soon as a
// full mapping exists (unless countAll is set, in which case it always
// returns false and accumulates s.found).
func (s *vf2State) match(d int) bool {
	if d == len(s.order) {
		if s.capture != nil && *s.capture == nil {
			m := make([]int, len(s.core))
			copy(m, s.core)
			*s.capture = m
		}
		if s.countAll {
			s.found++
			return s.limit > 0 && s.found >= s.limit
		}
		return true
	}
	pv := int(s.order[d])
	if a := s.anchor[d]; a >= 0 {
		// Candidates are neighbours of the image of the anchor vertex.
		tAnchor := s.core[s.order[a]]
		for _, tv := range s.t.Neighbors(tAnchor) {
			if s.feasible(pv, int(tv)) && s.extend(d, pv, int(tv)) {
				return true
			}
		}
		return false
	}
	// pv starts a new pattern component: try every target vertex.
	for tv := 0; tv < s.t.NumVertices(); tv++ {
		if s.feasible(pv, tv) && s.extend(d, pv, tv) {
			return true
		}
	}
	return false
}

func (s *vf2State) extend(d, pv, tv int) bool {
	s.core[pv] = tv
	s.used[tv] = true
	ok := s.match(d + 1)
	s.core[pv] = -1
	s.used[tv] = false
	return ok
}

// feasible applies the monomorphism feasibility rules for the candidate
// pair (pv, tv).
func (s *vf2State) feasible(pv, tv int) bool {
	if s.used[tv] || s.p.Label(pv) != s.t.Label(tv) {
		return false
	}
	if s.p.Degree(pv) > s.t.Degree(tv) {
		return false
	}
	// Core rule: every already-mapped neighbour of pv must map to a
	// neighbour of tv. (Non-induced: the converse is not required.)
	for _, pn := range s.p.Neighbors(pv) {
		if m := s.core[pn]; m >= 0 && !s.t.HasEdge(m, tv) {
			return false
		}
	}
	return true
}
