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
