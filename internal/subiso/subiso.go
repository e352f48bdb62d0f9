// Package subiso implements the subgraph-isomorphism "Method M" algorithms
// that GC+ expedites (§7.1 of the paper): vanilla VF2 (Cordella et al.,
// TPAMI 2004), VF2+ (VF2 with the candidate-ordering and neighbourhood
// pruning refinements used by CT-index, Klein et al., ICDE 2011), and
// GraphQL (He & Singh, SIGMOD 2008: neighbourhood profiles, global
// iterative refinement, and candidate-driven search). A naive brute-force
// matcher doubles as the correctness oracle for the test suite.
//
// All algorithms decide non-induced subgraph isomorphism ("monomorphism"):
// pattern p ⊆ target t iff there is an injection φ from V(p) to V(t) with
// matching labels that maps every edge of p onto an edge of t. Non-edges
// of p impose no constraint, per §3 of the paper.
//
// Repeated tests against a fixed pattern (or fixed target) should go
// through the compiled Matcher (CompileSub/CompileSuper), which hoists
// the per-pattern work out of the loop and runs each test on pooled
// scratch; Algorithm.Contains delegates to a one-shot compile.
package subiso

import (
	"fmt"

	"gcplus/internal/graph"
)

// Algorithm decides subgraph isomorphism.
type Algorithm interface {
	// Name returns the algorithm's short name ("VF2", "VF2+", "GQL", ...).
	Name() string
	// Contains reports whether pattern is subgraph-isomorphic to target.
	Contains(pattern, target *graph.Graph) bool
}

// New returns the production algorithm with the given name, one of
// Names() (case sensitive, matching the paper's names). Brute is a test
// oracle, never a Method M, so New does not build it.
func New(name string) (Algorithm, error) {
	switch name {
	case "VF2":
		return VF2{}, nil
	case "VF2+":
		return VF2Plus{}, nil
	case "GQL":
		return GraphQL{}, nil
	}
	return nil, fmt.Errorf("subiso: unknown algorithm %q (want VF2, VF2+ or GQL)", name)
}

// Names lists the production algorithm names in the paper's order.
func Names() []string { return []string{"VF2", "VF2+", "GQL"} }

// profileContains reports whether sorted multiset a is contained in sorted
// multiset b.
func profileContains(a, b []graph.Label) bool {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			i++
			j++
		case a[i] > b[j]:
			j++
		default:
			return false
		}
	}
	return i == len(a)
}
