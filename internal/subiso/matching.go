package subiso

import "gcplus/internal/graph"

// This file addresses the *matching* flavour of subgraph isomorphism
// (§2 of the paper distinguishes the decision problem from the matching
// problem that locates occurrences). GC+ itself only needs decisions, but
// the library exposes embeddings and counts because downstream users of a
// graph-query system routinely want them, and the tests use embeddings to
// cross-validate the decision algorithms.

// FindEmbedding returns one monomorphism from pattern into target as a
// slice m with m[u] = image of pattern vertex u, or nil if none exists.
// The VF2 engine is used.
func FindEmbedding(pattern, target *graph.Graph) []int {
	if pattern.NumVertices() == 0 {
		return []int{}
	}
	if !pattern.Summary().SubsumedBy(target.Summary()) {
		return nil
	}
	s := newVF2State(pattern, target)
	var m []int
	s.capture = &m
	s.match(0)
	return m
}

// CountEmbeddings counts distinct monomorphisms from pattern into target
// (two embeddings are distinct if any vertex maps differently; automorphic
// images are counted separately, the convention of the matching problem).
// A limit > 0 stops the search once that many embeddings are found, so
// callers can ask cheap questions like "are there at least 2?".
func CountEmbeddings(pattern, target *graph.Graph, limit int64) int64 {
	if pattern.NumVertices() == 0 {
		return 1
	}
	if !pattern.Summary().SubsumedBy(target.Summary()) {
		return 0
	}
	s := newVF2State(pattern, target)
	s.countAll = true
	s.limit = limit
	s.match(0)
	return s.found
}
