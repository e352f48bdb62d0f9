package subiso_test

import (
	"testing"

	"gcplus/internal/subiso"
)

// TestLazyOrderSameSearch pins the lazily built visit order to the search
// it replaced. On AIDS-like data, with Type A subgraph queries and
// supergraph queries shaped like the ledger's (a dataset graph plus three
// vertices), every VF2 and VF2+ test through CompileSub and CompileSuper
// must return the same verdict after the same number of search states as
// the same Matcher with its whole order prebuilt by the eager reference.
// The ledger's audit oracle runs this very Matcher, so it cannot catch a
// kernel change; this test and TestMatcherAgreesWithOracle can.
func TestLazyOrderSameSearch(t *testing.T) {
	ds, queries := pinCorpus(t)
	for _, algo := range []subiso.Algorithm{subiso.VF2{}, subiso.VF2Plus{}} {
		var matchers []*subiso.Matcher
		for i, q := range queries {
			if i < len(queries)-pinSupers {
				matchers = append(matchers, subiso.CompileSub(q, algo))
			} else {
				matchers = append(matchers, subiso.CompileSuper(q, algo))
			}
		}
		positives, states := 0, 0
		for i, m := range matchers {
			for j, g := range ds {
				s0 := m.States()
				lazy := m.Contains(g)
				s1 := m.States()
				eager := subiso.ContainsEager(m, g)
				s2 := m.States()
				if lazy != eager || s1-s0 != s2-s1 {
					t.Fatalf("%s matcher %d, graph %d: lazy %v after %d states, eager %v after %d",
						algo.Name(), i, j, lazy, s1-s0, eager, s2-s1)
				}
				if lazy {
					positives++
				}
				states += s1 - s0
			}
		}
		if positives == 0 || states == 0 {
			t.Fatalf("%s: fixture exercised nothing (%d positives, %d states)", algo.Name(), positives, states)
		}
	}
}
