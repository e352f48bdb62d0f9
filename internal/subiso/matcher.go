package subiso

import (
	"gcplus/internal/graph"
)

// Matcher is a compiled sub-iso tester: one side of the containment test
// is fixed at compile time and the other varies per Contains call. It is
// the verification engine behind the runtime's Method M loop, built so
// that testing one query pattern against thousands of dataset candidates
// pays the per-pattern work (summaries, and VF2's visit order and
// anchors) once and runs each test on pooled, reusable scratch — zero
// allocations in steady state once the scratch has grown to the largest
// candidate seen.
//
// A Matcher is NOT safe for concurrent use: the scratch is shared across
// calls. Fork returns an independent Matcher sharing only the immutable
// compiled artifacts, which is how the parallel verification loop gives
// each worker its own scratch.
type Matcher struct {
	algo  Algorithm
	kind  engineKind
	super bool // fixed side is the target, Contains receives patterns

	fixed *graph.Graph
	fsum  *graph.Summary

	// refineLevels is GraphQL's global-refinement sweep bound.
	refineLevels int

	// subOrder/subAnchor are VF2's precompiled visit order and anchors:
	// vanilla VF2 orders by vertex index, which is target-independent, so
	// a sub-mode compile pins them once for every candidate. Every other
	// VF2/VF2+ order depends on the pattern of the call (super mode) or
	// on target label rarity (VF2+), so it is built lazily per call, one
	// depth at a time as the search first reaches it (nextInOrder); GQL
	// orders by candidate-set size, built in full per call. All on
	// scratch, without allocating.
	subOrder  []int32
	subAnchor []int32

	sc scratch

	// states counts search-state extensions over all calls (States).
	states int

	// Per-call engine state (set by Contains, read by the recursive
	// search methods; kept on the Matcher so recursion allocates nothing).
	cp, ct   *graph.Graph
	cps, cts *graph.Summary
	order    []int32
	anchor   []int32
	built    int     // order[:built] and anchor[:built] are decided
	freq     []int32 // VF2+ rarity keys per pattern vertex; nil for VF2
	plus     bool    // VF2+ pruning rules active
}

// engineKind selects the compiled code path for one Algorithm.
type engineKind uint8

const (
	kindGeneric engineKind = iota // unknown Algorithm: fall back to its Contains
	kindVF2
	kindVF2Plus
	kindGQL
	kindBrute
)

func kindOf(algo Algorithm) engineKind {
	switch algo.(type) {
	case VF2:
		return kindVF2
	case VF2Plus:
		return kindVF2Plus
	case GraphQL:
		return kindGQL
	case Brute:
		return kindBrute
	}
	return kindGeneric
}

// CompileSub compiles pattern for repeated subgraph tests: the returned
// Matcher's Contains(target) reports pattern ⊆ target. This is the shape
// of a subgraph query's verification loop (one pattern, many dataset
// targets).
func CompileSub(pattern *graph.Graph, algo Algorithm) *Matcher {
	m := newMatcher(pattern, algo, false)
	if m.kind == kindVF2 && pattern.NumVertices() > 0 {
		m.subOrder, m.subAnchor = fullOrder(pattern)
	}
	return m
}

// CompileSuper compiles target for repeated supergraph tests: the
// returned Matcher's Contains(candidate) reports candidate ⊆ target. This
// is the shape of a supergraph query's verification loop (many dataset
// patterns, one query target); the target-side artifacts (summary, label
// frequencies, neighbourhood profiles) are fixed. The pattern-side ones
// are per call, on pooled scratch: VF2/VF2+ build the candidate's visit
// order lazily, so a test that rejects after a few placements never pays
// for the rest of the order.
func CompileSuper(target *graph.Graph, algo Algorithm) *Matcher {
	return newMatcher(target, algo, true)
}

func newMatcher(fixed *graph.Graph, algo Algorithm, super bool) *Matcher {
	m := &Matcher{algo: algo, kind: kindOf(algo), super: super, fixed: fixed}
	switch m.kind {
	case kindGeneric, kindBrute:
		// no summary-driven pruning on these paths
	default:
		m.fsum = fixed.Summary()
	}
	if g, ok := algo.(GraphQL); ok {
		m.refineLevels = g.RefineLevels
		if m.refineLevels <= 0 {
			m.refineLevels = DefaultRefineLevels
		}
	}
	return m
}

// Fork returns an independent Matcher sharing m's immutable compiled
// artifacts (pattern, summaries, precompiled order) but owning fresh
// scratch, so the fork and m can run Contains concurrently.
func (m *Matcher) Fork() *Matcher {
	return &Matcher{
		algo:         m.algo,
		kind:         m.kind,
		super:        m.super,
		fixed:        m.fixed,
		fsum:         m.fsum,
		refineLevels: m.refineLevels,
		subOrder:     m.subOrder,
		subAnchor:    m.subAnchor,
	}
}

// States returns the number of search states (partial-mapping
// extensions) this Matcher has explored over all its Contains calls: an
// exact, clock-free measure of verification work. A Fork starts at zero.
func (m *Matcher) States() int { return m.states }

// Name returns the compiled algorithm's name.
func (m *Matcher) Name() string { return m.algo.Name() }

// Algorithm returns the algorithm the matcher was compiled for.
func (m *Matcher) Algorithm() Algorithm { return m.algo }

// Contains runs one containment test against the compiled side: with
// CompileSub it reports fixedPattern ⊆ other, with CompileSuper it
// reports other ⊆ fixedTarget.
func (m *Matcher) Contains(other *graph.Graph) bool {
	p, t := m.fixed, other
	if m.super {
		p, t = other, m.fixed
	}
	np := p.NumVertices()
	if np == 0 {
		return true
	}
	switch m.kind {
	case kindGeneric:
		return m.algo.Contains(p, t)
	case kindBrute:
		if np > t.NumVertices() {
			return false
		}
		m.cp, m.ct = p, t
		m.prepare(np, t.NumVertices())
		return m.bruteMatch(0)
	}

	ps, ts := m.fsum, other.Summary()
	if m.super {
		ps, ts = other.Summary(), m.fsum
	}
	// Summary quick-reject: map-free, and strictly stronger than a
	// LabelCounts/MaxDegree rescan (degree-sequence domination).
	if !ps.SubsumedBy(ts) {
		return false
	}
	m.cp, m.ct, m.cps, m.cts = p, t, ps, ts
	nt := t.NumVertices()
	m.prepare(np, nt)
	sc := &m.sc

	if m.kind == kindGQL {
		return m.gql()
	}
	m.plus = m.kind == kindVF2Plus
	if m.subOrder != nil {
		m.order, m.anchor, m.built = m.subOrder, m.subAnchor, np
		return m.vf2Match(0)
	}
	m.freq = nil
	if m.plus {
		m.freq = sc.rarityKeys(ps, ts)
	}
	m.order, m.anchor, m.built = sc.order[:np], sc.anchor[:np], 0
	sc.startOrder(np)
	return m.vf2Match(0)
}

// rarityKeys returns VF2+'s rarity key per pattern vertex: the target's
// count of the vertex's label. One merge walk over the two sorted label
// counts prices each pattern label (SubsumedBy has proved every one
// present in the target), and each label's run of vertices takes it.
func (sc *scratch) rarityKeys(ps, ts *graph.Summary) []int32 {
	freq := sc.freq[:ps.Vertices()]
	tl, byLabel := ts.LabelCounts(), ps.ByLabel()
	j := 0
	for _, lc := range ps.LabelCounts() {
		for tl[j].Label != lc.Label {
			j++
		}
		for _, v := range byLabel[:lc.Count] {
			freq[v] = tl[j].Count
		}
		byLabel = byLabel[lc.Count:]
	}
	return freq
}

// prepare sizes the scratch for an (np, nt) test and resets the search
// state (core mapping and used marks).
func (m *Matcher) prepare(np, nt int) {
	sc := &m.sc
	sc.growPattern(np)
	sc.used = growBool(sc.used, nt)
	core := sc.core[:np]
	for i := range core {
		core[i] = -1
	}
	used := sc.used[:nt]
	for i := range used {
		used[i] = false
	}
}

// scratch is the pooled, reusable search state. Slices grow to the
// largest pattern/target seen and are never shrunk, so steady-state
// Contains calls allocate nothing.
type scratch struct {
	// pattern-sized
	order, anchor, pos, ordered, freq, core []int32
	frontier                                []int32
	inOrder                                 []bool
	gdone, gadj                             []bool
	cand                                    [][]int32
	inCand                                  [][]bool
	// target-sized; bm is GraphQL's alone and grows only on its path, so
	// a cached VF2/VF2+ matcher does not retain matching buffers it never
	// touches
	used []bool
	bm   bipartiteMatcher
}

func grow32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

func growBool(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	return s[:n]
}

func (sc *scratch) growPattern(np int) {
	sc.order = grow32(sc.order, np)
	sc.anchor = grow32(sc.anchor, np)
	sc.pos = grow32(sc.pos, np)
	sc.ordered = grow32(sc.ordered, np)
	sc.freq = grow32(sc.freq, np)
	sc.core = grow32(sc.core, np)
	sc.frontier = grow32(sc.frontier, np)
	sc.inOrder = growBool(sc.inOrder, np)
	sc.gdone = growBool(sc.gdone, np)
	sc.gadj = growBool(sc.gadj, np)
	for len(sc.cand) < np {
		sc.cand = append(sc.cand, nil)
	}
	for len(sc.inCand) < np {
		sc.inCand = append(sc.inCand, nil)
	}
}

// startOrder resets the visit-order builder for an np-vertex pattern.
func (sc *scratch) startOrder(np int) {
	clear(sc.inOrder[:np])
	clear(sc.ordered[:np])
	sc.frontier = sc.frontier[:0]
}

// nextInOrder decides order[d] and anchor[d] of VF2/VF2+'s connected
// visit order, in which each vertex after the first of its component has
// an earlier neighbour. The pick is the unplaced vertex with the most
// placed neighbours; ties, and component roots, go to betterRoot. Only
// frontier vertices (unplaced, with a placed neighbour, counted in
// ordered) can have any, so it scans all unplaced vertices only to root a
// new component. A frontier vertex's anchor — the earliest position of a
// placed neighbour — is where it joined the frontier (kept in pos).
func (sc *scratch) nextInOrder(p *graph.Graph, freq []int32, d int) {
	best, at := -1, -1
	for i, v := range sc.frontier {
		switch {
		case best == -1, sc.ordered[v] > sc.ordered[best],
			sc.ordered[v] == sc.ordered[best] && betterRoot(p, freq, int(v), best):
			best, at = int(v), i
		}
	}
	anchor := int32(-1)
	if at >= 0 {
		anchor = sc.pos[best]
		last := len(sc.frontier) - 1
		sc.frontier[at] = sc.frontier[last]
		sc.frontier = sc.frontier[:last]
	} else {
		for v := 0; v < p.NumVertices(); v++ {
			if !sc.inOrder[v] && (best == -1 || betterRoot(p, freq, v, best)) {
				best = v
			}
		}
	}
	sc.inOrder[best] = true
	sc.order[d], sc.anchor[d] = int32(best), anchor
	for _, w := range p.Neighbors(best) {
		if sc.inOrder[w] {
			continue
		}
		if sc.ordered[w] == 0 {
			sc.pos[w] = int32(d)
			sc.frontier = append(sc.frontier, w)
		}
		sc.ordered[w]++
	}
}

// fullOrder runs the builder to completion with VF2's index tie-break,
// for the order CompileSub fixes per pattern, on fresh buffers holding
// only what the builder touches.
func fullOrder(p *graph.Graph) (order, anchor []int32) {
	n := p.NumVertices()
	out, tmp := make([]int32, 2*n), make([]int32, 3*n)
	sc := scratch{
		order: out[:n:n], anchor: out[n:],
		pos: tmp[:n], ordered: tmp[n : 2*n], frontier: tmp[2*n : 2*n : 3*n],
		inOrder: make([]bool, n),
	}
	for d := 0; d < n; d++ {
		sc.nextInOrder(p, nil, d)
	}
	return sc.order, sc.anchor
}

// betterRoot orders candidate vertices for nextInOrder: a nil freq gives
// VF2's index order; otherwise VF2+'s rarity order (lower target label
// frequency first, then higher degree, then index).
func betterRoot(p *graph.Graph, freq []int32, a, b int) bool {
	if freq == nil {
		return a < b
	}
	if freq[a] != freq[b] {
		return freq[a] < freq[b] // rarer label first
	}
	if p.Degree(a) != p.Degree(b) {
		return p.Degree(a) > p.Degree(b) // higher degree first
	}
	return a < b
}

// buildAnchors gives GQL's order its anchors on scratch: for each order
// position, the earliest position of an already-ordered neighbour (-1
// for component roots). During search the candidates of order[i] are the
// target neighbours of the image of order[anchor[i]].
func (sc *scratch) buildAnchors(p *graph.Graph, order []int32) []int32 {
	n := len(order)
	pos := sc.pos
	anchor := sc.anchor[:n]
	for i, v := range order {
		pos[v] = int32(i)
	}
	for i, v := range order {
		anchor[i] = -1
		best := int32(n)
		for _, w := range p.Neighbors(int(v)) {
			if pw := pos[w]; pw < int32(i) && pw < best {
				best = pw
			}
		}
		if best < int32(n) {
			anchor[i] = best
		}
	}
	return anchor
}

// vf2Match is the shared VF2/VF2+ search over the compiled state.
func (m *Matcher) vf2Match(d int) bool {
	if d == len(m.order) {
		return true
	}
	if d == m.built {
		m.sc.nextInOrder(m.cp, m.freq, d)
		m.built++
	}
	pv := int(m.order[d])
	if a := m.anchor[d]; a >= 0 {
		tAnchor := int(m.sc.core[m.order[a]])
		for _, tv := range m.ct.Neighbors(tAnchor) {
			if m.vf2Feasible(pv, int(tv)) && m.vf2Extend(d, pv, int(tv)) {
				return true
			}
		}
		return false
	}
	nt := m.ct.NumVertices()
	for tv := 0; tv < nt; tv++ {
		if m.vf2Feasible(pv, tv) && m.vf2Extend(d, pv, tv) {
			return true
		}
	}
	return false
}

func (m *Matcher) vf2Extend(d, pv, tv int) bool {
	m.states++
	m.sc.core[pv] = int32(tv)
	m.sc.used[tv] = true
	ok := m.vf2Match(d + 1)
	m.sc.core[pv] = -1
	m.sc.used[tv] = false
	return ok
}

func (m *Matcher) vf2Feasible(pv, tv int) bool {
	sc := &m.sc
	if sc.used[tv] || m.cp.Label(pv) != m.ct.Label(tv) {
		return false
	}
	if m.cp.Degree(pv) > m.ct.Degree(tv) {
		return false
	}
	for _, pn := range m.cp.Neighbors(pv) {
		if c := sc.core[pn]; c >= 0 && !m.ct.HasEdge(int(c), tv) {
			return false
		}
	}
	if m.plus {
		// Neighbourhood label containment via the precomputed sorted
		// profiles (the map-free form of VF2+'s per-label count check).
		if !profileContains(m.cps.Profile(pv), m.cts.Profile(tv)) {
			return false
		}
		// Monomorphism-safe 1-look-ahead.
		pFree := 0
		for _, pn := range m.cp.Neighbors(pv) {
			if sc.core[pn] < 0 {
				pFree++
			}
		}
		tFree := 0
		for _, tn := range m.ct.Neighbors(tv) {
			if !sc.used[tn] {
				tFree++
			}
		}
		if pFree > tFree {
			return false
		}
	}
	return true
}

// gql is GraphQL's three stages on compiled state: local pruning from the
// precomputed profiles, global refinement with the pooled bipartite
// matcher, then candidate-ordered search.
func (m *Matcher) gql() bool {
	p, t := m.cp, m.ct
	np, nt := p.NumVertices(), t.NumVertices()
	sc := &m.sc
	sc.bm.grow(nt)

	// Stage 1: local pruning into pooled candidate rows.
	for u := 0; u < np; u++ {
		pu := m.cps.Profile(u)
		row := growBool(sc.inCand[u], nt)
		sc.inCand[u] = row
		for i := range row {
			row[i] = false
		}
		cu := sc.cand[u][:0]
		lu, du := p.Label(u), p.Degree(u)
		for v := 0; v < nt; v++ {
			if lu != t.Label(v) || du > t.Degree(v) {
				continue
			}
			if !profileContains(pu, m.cts.Profile(v)) {
				continue
			}
			cu = append(cu, int32(v))
			row[v] = true
		}
		sc.cand[u] = cu
		if len(cu) == 0 {
			return false
		}
	}

	// Stage 2: global refinement via semi-perfect bipartite matching.
	for level := 0; level < m.refineLevels; level++ {
		changed := false
		for u := 0; u < np; u++ {
			pn := p.Neighbors(u)
			if len(pn) == 0 {
				continue
			}
			kept := sc.cand[u][:0]
			for _, v := range sc.cand[u] {
				if sc.bm.semiPerfect(pn, t.Neighbors(int(v)), sc.inCand) {
					kept = append(kept, v)
				} else {
					sc.inCand[u][v] = false
					changed = true
				}
			}
			sc.cand[u] = kept
			if len(kept) == 0 {
				return false
			}
		}
		if !changed {
			break
		}
	}

	// Stage 3: search-order optimization + DFS.
	m.order = sc.gqlOrder(p)
	m.anchor = sc.buildAnchors(p, m.order)
	return m.gqlSearch(0)
}

// gqlOrder picks the next vertex (preferring ones adjacent to the already
// ordered set) with the smallest candidate list, on scratch.
func (sc *scratch) gqlOrder(p *graph.Graph) []int32 {
	n := p.NumVertices()
	order := sc.order[:n]
	done := sc.gdone[:n]
	adjacent := sc.gadj[:n]
	for i := range done {
		done[i] = false
		adjacent[i] = false
	}
	for k := 0; k < n; k++ {
		best, bestAdj := -1, false
		for v := 0; v < n; v++ {
			if done[v] {
				continue
			}
			switch {
			case best == -1,
				adjacent[v] && !bestAdj,
				adjacent[v] == bestAdj && len(sc.cand[v]) < len(sc.cand[best]),
				adjacent[v] == bestAdj && len(sc.cand[v]) == len(sc.cand[best]) && p.Degree(v) > p.Degree(best):
				best, bestAdj = v, adjacent[v]
			}
		}
		done[best] = true
		order[k] = int32(best)
		for _, w := range p.Neighbors(best) {
			adjacent[w] = true
		}
	}
	return order
}

func (m *Matcher) gqlSearch(d int) bool {
	if d == len(m.order) {
		return true
	}
	pv := int(m.order[d])
	if a := m.anchor[d]; a >= 0 {
		tAnchor := int(m.sc.core[m.order[a]])
		for _, tv := range m.ct.Neighbors(tAnchor) {
			if m.gqlTry(d, pv, int(tv)) {
				return true
			}
		}
		return false
	}
	for _, tv := range m.sc.cand[pv] {
		if m.gqlTry(d, pv, int(tv)) {
			return true
		}
	}
	return false
}

func (m *Matcher) gqlTry(d, pv, tv int) bool {
	sc := &m.sc
	if sc.used[tv] || !sc.inCand[pv][tv] {
		return false
	}
	for _, pn := range m.cp.Neighbors(pv) {
		if c := sc.core[pn]; c >= 0 && !m.ct.HasEdge(int(c), tv) {
			return false
		}
	}
	m.states++
	sc.core[pv] = int32(tv)
	sc.used[tv] = true
	ok := m.gqlSearch(d + 1)
	sc.core[pv] = -1
	sc.used[tv] = false
	return ok
}

// bruteMatch is Brute's exhaustive backtracking on pooled scratch:
// deliberately heuristic-free.
func (m *Matcher) bruteMatch(u int) bool {
	if u == m.cp.NumVertices() {
		return true
	}
	sc := &m.sc
	nt := m.ct.NumVertices()
	for v := 0; v < nt; v++ {
		if sc.used[v] || m.cp.Label(u) != m.ct.Label(v) {
			continue
		}
		ok := true
		for _, w := range m.cp.Neighbors(u) {
			if c := sc.core[w]; c >= 0 && !m.ct.HasEdge(int(c), v) {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		m.states++
		sc.core[u] = int32(v)
		sc.used[v] = true
		if m.bruteMatch(u + 1) {
			return true
		}
		sc.core[u] = -1
		sc.used[v] = false
	}
	return false
}
