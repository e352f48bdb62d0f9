// Package feature computes containment-monotone fingerprints of graphs.
//
// GC+'s query processors must discover, for a new query g, the cached
// queries g′ with g ⊆ g′ and the cached g″ with g″ ⊆ g (Result_sub and
// Result_super of §6). Testing sub-isomorphism against every cached query
// would be wasteful, so each cached query carries a fingerprint for which
//
//	g1 ⊆ g2  ⇒  Fingerprint(g1).SubsumedBy(Fingerprint(g2))
//
// holds (the converse need not). The fingerprint combines vertex/edge
// counts, the descending degree sequence, per-label vertex counts and
// per-label-pair edge counts; each component is monotone under subgraph
// embedding, so SubsumedBy is a sound necessary condition usable as a
// prefilter in both directions.
//
// Hit discovery (core's findHits) checks every same-kind cache entry's
// fingerprint against the query's in both directions, and runs the
// decisive query-to-query sub-iso test only where it passes.
package feature

import (
	"sort"

	"gcplus/internal/graph"
)

// Fingerprint is a containment-monotone summary of one graph.
type Fingerprint struct {
	// sum is the graph's memoized structural Summary (vertex/edge counts,
	// descending degree sequence, sorted per-label counts), shared with
	// the verification engine; its SubsumedBy supplies every dominance
	// check except the label-pair one.
	sum *graph.Summary
	// pairs holds per-label-pair edge counts, sorted by key.
	pairs []pairCount
}

type pairCount struct {
	key   uint64 // min label << 32 | max label
	count int32
}

// Of computes the fingerprint of g. It runs on every query and every
// cache admission, so it is kept allocation-lean: everything except the
// label-pair counts is the graph's memoized Summary (computed once per
// graph, shared with the verification engine), and the label-pair counts
// iterate adjacency directly — no materialized edge list, no maps.
func Of(g *graph.Graph) *Fingerprint {
	nv := g.NumVertices()
	f := &Fingerprint{sum: g.Summary()}

	keys := make([]uint64, 0, g.NumEdges())
	for u := 0; u < nv; u++ {
		lu := g.Label(u)
		for _, v := range g.Neighbors(u) {
			if int32(u) >= v {
				continue // each undirected edge once
			}
			la, lb := lu, g.Label(int(v))
			if la > lb {
				la, lb = lb, la
			}
			keys = append(keys, uint64(la)<<32|uint64(lb))
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for i := 0; i < len(keys); {
		j := i
		for j < len(keys) && keys[j] == keys[i] {
			j++
		}
		f.pairs = append(f.pairs, pairCount{keys[i], int32(j - i)})
		i = j
	}
	return f
}

// Vertices returns |V|.
func (f *Fingerprint) Vertices() int { return f.sum.Vertices() }

// Edges returns |E|.
func (f *Fingerprint) Edges() int { return f.sum.Edges() }

// SubsumedBy reports whether every fingerprint component of f is
// dominated by o's — a necessary condition for the underlying graph of f
// being subgraph-isomorphic to that of o. The size, degree-sequence and
// per-label dominance checks are the Summary's own; the fingerprint adds
// the per-label-pair edge counts (monotone like the rest: an embedding
// maps each pattern edge onto a target edge with the same label pair).
func (f *Fingerprint) SubsumedBy(o *Fingerprint) bool {
	if !f.sum.SubsumedBy(o.sum) {
		return false
	}
	i, j := 0, 0
	for i < len(f.pairs) {
		if j == len(o.pairs) || f.pairs[i].key < o.pairs[j].key {
			return false
		}
		if f.pairs[i].key > o.pairs[j].key {
			j++
			continue
		}
		if f.pairs[i].count > o.pairs[j].count {
			return false
		}
		i++
		j++
	}
	return true
}

// SameSize reports whether f and o describe graphs with identical vertex
// and edge counts — with SubsumedBy in one direction this witnesses the
// "same number of nodes and edges" test of the paper's exact-match optimal
// case (§6.3).
func (f *Fingerprint) SameSize(o *Fingerprint) bool {
	return f.sum.Vertices() == o.sum.Vertices() && f.sum.Edges() == o.sum.Edges()
}
