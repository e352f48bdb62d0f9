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

	// subOrder is VF2's precompiled visit order: vanilla VF2 orders by
	// vertex index, which is target-independent, so a sub-mode compile
	// pins it once for every candidate. Every other VF2/VF2+ order
	// depends on the pattern of the call (super mode) or on target label
	// rarity (VF2+), so it is built lazily per call, one depth at a time
	// as the search first reaches it (extendOrder); GQL orders by
	// candidate-set size, built in full per call. All on scratch,
	// without allocating.
	subOrder *visitOrder

	sc scratch

	// states counts search-state extensions over all calls (States).
	states int

	// Per-call engine state (set by Contains, read by the recursive
	// search methods; kept on the Matcher so recursion allocates nothing).
	cp, ct   *graph.Graph
	cps, cts *graph.Summary
	np       int         // pattern vertices: the search depth
	vo       *visitOrder // subOrder, or the scratch order being built
	built    int         // vo's depths [0, built) are decided
	freq     []int32     // VF2+ rarity keys per pattern vertex once depth 1 is built; nil for VF2
	plus     bool        // VF2+ pruning rules active
}

// visitOrder is a VF2/VF2+ visit order with what each depth's
// feasibility check needs, fixed once the depth is placed. At depth d:
//   - order[d] is the pattern vertex placed there;
//   - anchor[d] is the depth of its earliest placed neighbour, or -1 for
//     a component root. The candidates are that depth's image's target
//     neighbours, or for a root the target's run of order[d]'s label;
//   - back[backOff[d]:backOff[d+1]] are its other neighbours placed
//     before d, the edges every candidate must also have;
//   - free[d] counts its neighbours placed after d, the pattern side of
//     VF2+'s look-ahead.
//
// GQL fills only order and anchor.
type visitOrder struct {
	order, anchor, free, backOff, back []int32
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
		m.subOrder = fullOrder(pattern)
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
		m.prepare(np, 0, t.NumVertices())
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
	m.cp, m.ct, m.cps, m.cts, m.np = p, t, ps, ts, np
	m.prepare(np, p.NumEdges(), t.NumVertices())

	if m.kind == kindGQL {
		return m.gql()
	}
	m.plus = m.kind == kindVF2Plus
	if m.subOrder != nil {
		m.vo, m.built = m.subOrder, np
		return m.vf2Match(0)
	}
	m.freq = nil
	m.vo, m.built = &m.sc.vo, 0
	m.sc.startOrder(np)
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

// rarestRoot returns VF2+'s first vertex, the least pattern vertex in
// betterRoot's order (rarer target label, then higher degree, then lower
// index), without rarity keys: the same merge walk as rarityKeys prices
// each pattern label once, and only the runs of the rarest labels are
// scanned. A test that fails at the root never builds the keys.
func (m *Matcher) rarestRoot() int {
	p := m.cp
	tl, byLabel := m.cts.LabelCounts(), m.cps.ByLabel()
	best, bestFreq := -1, int32(0)
	j := 0
	for _, lc := range m.cps.LabelCounts() {
		for tl[j].Label != lc.Label {
			j++
		}
		run := byLabel[:lc.Count]
		byLabel = byLabel[lc.Count:]
		f := tl[j].Count
		if best >= 0 && f > bestFreq {
			continue
		}
		for _, v := range run {
			switch {
			case best == -1, f < bestFreq,
				p.Degree(int(v)) > p.Degree(best),
				p.Degree(int(v)) == p.Degree(best) && int(v) < best:
				best, bestFreq = int(v), f
			}
		}
	}
	return best
}

// prepare sizes the scratch for a test of an np-vertex, ne-edge pattern
// against an nt-vertex target. A VF2, VF2+ or GQL search unwinds its
// mapping before it returns, so the core mapping (all -1) and the used
// marks (all false) are left clean for the next test and are set only
// where the scratch grows. Brute's search returns with its embedding in
// place, so a Brute matcher clears them on every test.
func (m *Matcher) prepare(np, ne, nt int) {
	sc := &m.sc
	sc.growPattern(np, ne)
	if len(sc.used) < nt {
		sc.used = make([]bool, max(nt, 2*len(sc.used)))
	}
	if m.kind == kindBrute {
		for i := range sc.core[:np] {
			sc.core[i] = -1
		}
		clear(sc.used[:nt])
	}
}

// scratch is the pooled, reusable search state. Slices grow, at least
// doubling, to the largest pattern/target seen and are never shrunk, so
// steady-state Contains calls allocate nothing; pattern-sized slices are
// as long as the capacity they were carved with, and callers index them
// below the pattern's size.
type scratch struct {
	// vo is the visit order being built; back is pattern-edge-sized,
	// backOff one longer than the pattern, the rest pattern-sized
	vo visitOrder
	// pattern-sized
	pos, ordered, freq, core []int32
	frontier                 []int32
	inOrder                  []bool
	gdone, gadj              []bool
	cand                     [][]int32
	inCand                   [][]bool
	// target-sized; bm is GraphQL's alone and grows only on its path, so
	// a cached VF2/VF2+ matcher does not retain matching buffers it never
	// touches
	used []bool
	bm   bipartiteMatcher
}

func growBool(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	return s[:n]
}

// growPattern sizes the pattern-side scratch for an np-vertex, ne-edge
// pattern. The pattern-sized int32 and bool slices are carved out of one
// allocation each; a fresh core mapping starts all -1.
func (sc *scratch) growPattern(np, ne int) {
	if ne > len(sc.vo.back) {
		sc.vo.back = make([]int32, max(ne, 2*len(sc.vo.back)))
	}
	if np <= len(sc.core) {
		return
	}
	n := max(np, 2*len(sc.core))
	buf := make([]int32, 9*n+1)
	carve := func(k int) []int32 {
		s := buf[:k:k]
		buf = buf[k:]
		return s
	}
	sc.vo.order, sc.vo.anchor, sc.vo.free = carve(n), carve(n), carve(n)
	sc.vo.backOff = carve(n + 1)
	sc.pos, sc.ordered, sc.freq, sc.core = carve(n), carve(n), carve(n), carve(n)
	sc.frontier = buf[:0:n]
	for i := range sc.core {
		sc.core[i] = -1
	}
	bools := make([]bool, 3*n)
	sc.inOrder, sc.gdone, sc.gadj = bools[:n:n], bools[n:2*n:2*n], bools[2*n:]
}

// startOrder resets the visit-order builder for an np-vertex pattern.
func (sc *scratch) startOrder(np int) {
	clear(sc.inOrder[:np])
	clear(sc.ordered[:np])
	sc.frontier = sc.frontier[:0]
	sc.vo.backOff[0] = 0
}

// nextInOrder decides depth d of VF2/VF2+'s connected visit order, in
// which each vertex after the first of its component has an earlier
// neighbour. The pick is the unplaced vertex with the most placed
// neighbours; ties, and component roots, go to betterRoot. Only frontier
// vertices (unplaced, with a placed neighbour, counted in ordered) can
// have any, so it scans all unplaced vertices only to root a new
// component. A frontier vertex's anchor — the earliest depth of a placed
// neighbour — is where it joined the frontier (kept in pos).
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
	sc.place(p, best, anchor, d)
}

// place puts pattern vertex v at depth d with the given anchor, records
// the depth's back edges and look-ahead count, and moves v's unplaced
// neighbours onto the frontier.
func (sc *scratch) place(p *graph.Graph, v int, anchor int32, d int) {
	vo := &sc.vo
	sc.inOrder[v] = true
	vo.order[d], vo.anchor[d] = int32(v), anchor
	vo.free[d] = int32(p.Degree(v)) - sc.ordered[v]
	av := int32(-1)
	if anchor >= 0 {
		av = vo.order[anchor]
	}
	k := vo.backOff[d]
	for _, w := range p.Neighbors(v) {
		if sc.inOrder[w] {
			if w != av {
				vo.back[k] = w
				k++
			}
			continue
		}
		if sc.ordered[w] == 0 {
			sc.pos[w] = int32(d)
			sc.frontier = append(sc.frontier, w)
		}
		sc.ordered[w]++
	}
	vo.backOff[d+1] = k
}

// fullOrder runs the builder to completion with VF2's index tie-break,
// for the order CompileSub fixes per pattern, on fresh buffers holding
// only what the builder touches.
func fullOrder(p *graph.Graph) *visitOrder {
	n := p.NumVertices()
	out, tmp := make([]int32, 4*n+1+p.NumEdges()), make([]int32, 3*n)
	sc := scratch{
		vo: visitOrder{
			order: out[:n:n], anchor: out[n : 2*n : 2*n], free: out[2*n : 3*n : 3*n],
			backOff: out[3*n : 4*n+1 : 4*n+1], back: out[4*n+1:],
		},
		pos: tmp[:n], ordered: tmp[n : 2*n], frontier: tmp[2*n : 2*n : 3*n],
		inOrder: make([]bool, n),
	}
	for d := 0; d < n; d++ {
		sc.nextInOrder(p, nil, d)
	}
	vo := sc.vo
	vo.back = vo.back[:vo.backOff[n]]
	return &vo
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
	anchor := sc.vo.anchor[:n]
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

// extendOrder decides depth d of a lazily built order. VF2+'s root is
// picked per label run (rarestRoot); its rarity keys, which every later
// tie-break reads, are built when the search first reaches depth 1.
func (m *Matcher) extendOrder(d int) {
	sc := &m.sc
	if m.plus && d == 0 {
		sc.place(m.cp, m.rarestRoot(), -1, 0)
	} else {
		if m.plus && m.freq == nil {
			m.freq = sc.rarityKeys(m.cps, m.cts)
		}
		sc.nextInOrder(m.cp, m.freq, d)
	}
	m.built++
}

// vf2Match is the shared VF2/VF2+ search over the compiled state. The
// pattern side of every feasibility check is fixed per depth, so it is
// read once before the candidate loop, which tests only the target side:
// label, degree, the back edges, and for VF2+ the neighbourhood profile
// and the look-ahead.
func (m *Matcher) vf2Match(d int) bool {
	if d == m.np {
		return true
	}
	if d == m.built {
		m.extendOrder(d)
	}
	vo, sc, t := m.vo, &m.sc, m.ct
	pv := int(vo.order[d])
	label, degree := m.cp.Label(pv), m.cp.Degree(pv)
	var cands []int32
	if a := vo.anchor[d]; a >= 0 {
		cands = t.Neighbors(int(sc.core[vo.order[a]]))
	} else {
		cands = m.cts.LabelRun(label)
	}
	back := vo.back[vo.backOff[d]:vo.backOff[d+1]]
	var profile []graph.Label
	free := 0
	if m.plus {
		profile, free = m.cps.Profile(pv), int(vo.free[d])
	}
next:
	for _, c := range cands {
		tv := int(c)
		if sc.used[tv] || t.Label(tv) != label || t.Degree(tv) < degree {
			continue
		}
		for _, pn := range back {
			if !t.HasEdge(int(sc.core[pn]), tv) {
				continue next
			}
		}
		if m.plus && !m.lookAhead(profile, free, d, tv) {
			continue
		}
		m.states++
		sc.core[pv] = c
		sc.used[tv] = true
		ok := m.vf2Match(d + 1)
		sc.core[pv] = -1
		sc.used[tv] = false
		if ok {
			return true
		}
	}
	return false
}

// lookAhead is VF2+'s pruning of target vertex tv for a depth-d pattern
// vertex with neighbourhood label profile and free unplaced neighbours.
func (m *Matcher) lookAhead(profile []graph.Label, free, d, tv int) bool {
	// Neighbourhood label containment via the precomputed sorted
	// profiles (the map-free form of VF2+'s per-label count check).
	if !profileContains(profile, m.cts.Profile(tv)) {
		return false
	}
	// Monomorphism-safe 1-look-ahead. Only d target vertices are used, so
	// at least Degree(tv) - d of tv's neighbours are free.
	t := m.ct
	if free <= t.Degree(tv)-d {
		return true
	}
	tFree := 0
	for _, tn := range t.Neighbors(tv) {
		if !m.sc.used[tn] {
			tFree++
		}
	}
	return free <= tFree
}

// gql is GraphQL's three stages on compiled state: local pruning from the
// precomputed profiles, global refinement with the pooled bipartite
// matcher, then candidate-ordered search.
func (m *Matcher) gql() bool {
	p, t := m.cp, m.ct
	np, nt := p.NumVertices(), t.NumVertices()
	sc := &m.sc
	sc.bm.grow(nt)
	for len(sc.cand) < np {
		sc.cand = append(sc.cand, nil)
		sc.inCand = append(sc.inCand, nil)
	}

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
	sc.buildAnchors(p, sc.gqlOrder(p))
	m.vo = &sc.vo
	return m.gqlSearch(0)
}

// gqlOrder picks the next vertex (preferring ones adjacent to the already
// ordered set) with the smallest candidate list, on scratch.
func (sc *scratch) gqlOrder(p *graph.Graph) []int32 {
	n := p.NumVertices()
	order := sc.vo.order[:n]
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
	if d == m.np {
		return true
	}
	pv := int(m.vo.order[d])
	if a := m.vo.anchor[d]; a >= 0 {
		tAnchor := int(m.sc.core[m.vo.order[a]])
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
