package subiso

import "gcplus/internal/graph"

// Brute is an exhaustive backtracking matcher with no ordering heuristics
// and no pruning beyond label equality, injectivity and edge preservation.
// It exists as the independent correctness oracle for the other
// algorithms (and is exercised by the property tests); never use it as a
// Method M in measurements.
type Brute struct{}

// Name implements Algorithm.
func (Brute) Name() string { return "BRUTE" }

// Contains implements Algorithm via a one-shot compile.
func (Brute) Contains(pattern, target *graph.Graph) bool {
	return CompileSub(pattern, Brute{}).Contains(target)
}
