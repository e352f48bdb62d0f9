package subiso

import "gcplus/internal/graph"

// VF2Plus is the modified VF2 used by CT-index (Klein, Kriege, Mutzel,
// ICDE 2011), which the paper calls VF2+ and reports as a consistently
// better performer than vanilla VF2. The engine is VF2's, with three
// refinements:
//
//  1. rarity-driven visit order: pattern vertices whose labels are rare in
//     the target are matched first (ties broken towards higher degree), so
//     contradictions surface near the root of the search tree;
//  2. neighbourhood label pruning: a candidate target vertex must carry,
//     for every label, at least as many neighbours with that label as the
//     pattern vertex does;
//  3. the monomorphism-safe 1-look-ahead cut on unmatched-neighbour counts
//     (enabled in the shared engine via the lookahead flag).
type VF2Plus struct{}

// Name implements Algorithm.
func (VF2Plus) Name() string { return "VF2+" }

// Contains implements Algorithm via a one-shot compile of the pattern;
// callers testing one pattern against many targets should CompileSub once
// and reuse the Matcher instead.
func (VF2Plus) Contains(pattern, target *graph.Graph) bool {
	return CompileSub(pattern, VF2Plus{}).Contains(target)
}
