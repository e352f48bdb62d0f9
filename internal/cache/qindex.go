package cache

import (
	"fmt"

	"gcplus/internal/bitset"
	"gcplus/internal/ftv"
	"gcplus/internal/graph"
)

// This file implements the cache-side query index: the structure that
// makes hit discovery sub-linear in the cache size.
//
// # Why
//
// The GC+sub/GC+super processors must find, for a new query g, the
// cached queries that could contain g and those g could contain. The
// fingerprint prefilter makes each pairwise check cheap, but a linear
// scan still pays O(cache size) fingerprint checks per query — the
// scaling wall once caches grow past the paper's capacity of 100. The
// query index replays the original GraphCache's query-index idea on the
// cache side: per query kind it maintains postings over entry *slots*
// (the cache's dense, recycled slot table; see index.go) keyed by
// containment-monotone features of each entry's query:
//
//   - per-label postings: slots of entries whose query carries a label;
//   - vertex- and edge-count buckets: slots grouped by query size;
//   - short-path-signature postings reusing internal/ftv's
//     canonical path extraction (gIndex-style filtering applied to the
//     cached queries instead of the dataset).
//
// Candidate lookup is then bitset algebra: "entries that could contain
// g" is the intersection of g's label (and path) postings minus the
// too-small size buckets; "entries g could contain" is the kind's slot
// set minus postings of labels g lacks and minus the too-large buckets.
// Both are over-approximations of the fingerprint tests they replace —
// every feature is monotone under subgraph embedding, so no true hit is
// ever dropped — and the decisive fingerprint + query-to-query sub-iso
// tests still run per candidate. The win is that they run on the few
// candidates instead of on every entry.
//
// # Consistency
//
// The index is maintained by exactly the two mutation points every
// entry passes through: Cache.Add (admission to the window) and
// Cache.releaseEntry (eviction, purge). Window flush moves entries
// between stores without changing their slot, so nothing to do;
// RefreshEntry and repair commits (RestoreBit) rewrite an entry's
// Answer/Valid bitsets but never its query graph, so the postings —
// keyed on query structure only — stay exact. CheckQueryIndex verifies
// the invariant after every mutation sequence in tests, and
// FuzzQueryIndex drives random op streams against it.

// QueryPathLen is the maximum path length (in edges) of the query
// index's path-signature postings. Short paths keep per-admission
// extraction cheap while pruning far better than labels alone; length 2
// is plenty for the small query graphs GC+ caches. The lookups take the
// probe query's signatures, extracted at this length, from the caller.
const QueryPathLen = 2

// qindexMaxBucket saturates the size buckets: queries with ≥ this many
// vertices (or edges) share the top bucket. Below the cap the bucket is
// the exact count, so size cuts are exact for typical query sizes.
const qindexMaxBucket = 64

func qindexBucket(n int) int {
	if n > qindexMaxBucket {
		return qindexMaxBucket
	}
	return n
}

// queryIndex holds one kindIndex per query kind, the per-slot path
// signatures needed to undo path postings on removal, and the memoized
// query-to-query relation graph.
type queryIndex struct {
	kinds [2]kindIndex
	// sigs remembers each slot's path signatures so removeEntry can
	// clean up without re-extracting (extraction is deterministic, but
	// the entry may hold the only reference to its query by then).
	sigs map[int][]string
	// containing/contained are the lookup scratch sets, reused across
	// queries (the cache is owned by one goroutine, like all its state)
	// so candidate lookup allocates nothing per query.
	containing, contained *bitset.Set

	// sup/sub, indexed by slot, memoize the query-to-query containment
	// relations among live same-kind entries: sup[s] holds the slots of
	// entries whose query contains slot s's query, sub[s] those it
	// contains (in the style of one-hop sub-query caches). The
	// relations fall out of hit discovery for free — when an entry is
	// admitted, the query that produced it was just classified against
	// every live same-kind entry — and every pair of live entries had
	// its relation computed when the younger one was admitted, so the
	// graph is complete. Symmetry invariant: a ∈ sup[b] ⟺ b ∈ sub[a].
	// A repeated query that proves isomorphic to a cached entry reads
	// its hit sets straight from these bitsets, skipping every pairwise
	// sub-iso test (ForEachRelated).
	sup, sub []*bitset.Set
	// relKnown marks slots admitted with their relations; entries added
	// without them (AddWithRelations(e, nil, nil), i.e. the bare Add
	// used by cache-level tests) leave the slot readable for reciprocal
	// bookkeeping but unusable as a fast-path base.
	relKnown []bool
	// relIncomplete is set once any entry was admitted without
	// relations: pairs involving it are missing everywhere, so the
	// whole fast path is disabled for this cache instance. The runtime
	// always admits with relations; only raw test admissions trip this.
	relIncomplete bool
}

// qindexLabelCountCap bounds the per-label count thresholds indexed:
// byLabel[l][k-1] holds entries with ≥ k vertices of label l, for
// k ≤ the cap. Label multiplicities above the cap are approximated by
// the cap posting (sound: a superset).
const qindexLabelCountCap = 8

// kindIndex is the posting store for one query kind.
type kindIndex struct {
	// all is the slot set of every indexed entry of this kind.
	all *bitset.Set
	// byLabel maps a vertex label to count-threshold postings:
	// byLabel[l][k-1] is the slots of entries whose query carries at
	// least k vertices of label l (k = 1..qindexLabelCountCap). Count
	// thresholds cut far deeper than bare membership: an entry needing
	// three vertices of a label cannot contain a query offering one,
	// and vice versa.
	byLabel map[graph.Label][]*bitset.Set
	// byPath maps a canonical path signature (ftv.PathSignatures) to the
	// slots of entries whose query contains the path.
	byPath map[string]*bitset.Set
	// byVertices/byEdges/byMaxDeg group slots by saturated query
	// vertex-count, edge-count and maximum-degree buckets.
	byVertices []*bitset.Set
	byEdges    []*bitset.Set
	byMaxDeg   []*bitset.Set
}

func newQueryIndex() *queryIndex {
	qi := &queryIndex{
		sigs:       make(map[int][]string),
		containing: bitset.New(0),
		contained:  bitset.New(0),
	}
	for k := range qi.kinds {
		qi.kinds[k] = kindIndex{
			all:     bitset.New(0),
			byLabel: make(map[graph.Label][]*bitset.Set),
			byPath:  make(map[string]*bitset.Set),
		}
	}
	return qi
}

func labelCap(count int32) int {
	if count > qindexLabelCountCap {
		return qindexLabelCountCap
	}
	return int(count)
}

func (ki *kindIndex) labelAdd(l graph.Label, count int32, slot int) {
	ps := ki.byLabel[l]
	top := labelCap(count)
	for len(ps) < top {
		ps = append(ps, bitset.New(slot+1))
	}
	ki.byLabel[l] = ps
	for k := 0; k < top; k++ {
		ps[k].Set(slot)
	}
}

func (ki *kindIndex) labelRemove(l graph.Label, count int32, slot int) {
	ps := ki.byLabel[l]
	for k := 0; k < labelCap(count) && k < len(ps); k++ {
		ps[k].Clear(slot)
	}
	// Trim postings that emptied out (thresholds empty top-down: the
	// ≥k posting is a superset of the ≥k+1 one).
	for len(ps) > 0 && ps[len(ps)-1].None() {
		ps = ps[:len(ps)-1]
	}
	if len(ps) == 0 {
		delete(ki.byLabel, l)
	} else {
		ki.byLabel[l] = ps
	}
}

func bucketSet(buckets *[]*bitset.Set, b, slot int) {
	for len(*buckets) <= b {
		*buckets = append(*buckets, nil)
	}
	if (*buckets)[b] == nil {
		(*buckets)[b] = bitset.New(slot + 1)
	}
	(*buckets)[b].Set(slot)
}

func bucketClear(buckets []*bitset.Set, b, slot int) {
	if b < len(buckets) && buckets[b] != nil {
		buckets[b].Clear(slot)
	}
}

// addEntry indexes e under its assigned slot. containing/contained are
// the live entries whose queries contain / are contained in e.Query
// (nil when unknown, which disables the relation fast path — see
// queryIndex.relIncomplete); reciprocal edges are recorded on the spot
// so the relation graph stays symmetric.
func (qi *queryIndex) addEntry(e *Entry, containing, contained []*Entry) {
	ki := &qi.kinds[e.Kind]
	sum := e.Query.Summary()
	ki.all.Set(e.slot)
	for len(qi.sup) <= e.slot {
		qi.sup = append(qi.sup, nil)
		qi.sub = append(qi.sub, nil)
		qi.relKnown = append(qi.relKnown, false)
	}
	qi.sup[e.slot] = bitset.New(e.slot + 1)
	qi.sub[e.slot] = bitset.New(e.slot + 1)
	qi.relKnown[e.slot] = containing != nil || contained != nil
	if !qi.relKnown[e.slot] {
		qi.relIncomplete = true
	}
	for _, s := range containing {
		qi.sup[e.slot].Set(s.slot)
		qi.sub[s.slot].Set(e.slot)
	}
	for _, s := range contained {
		qi.sub[e.slot].Set(s.slot)
		qi.sup[s.slot].Set(e.slot)
	}
	for _, lc := range sum.LabelCounts() {
		ki.labelAdd(lc.Label, lc.Count, e.slot)
	}
	bucketSet(&ki.byVertices, qindexBucket(sum.Vertices()), e.slot)
	bucketSet(&ki.byEdges, qindexBucket(sum.Edges()), e.slot)
	bucketSet(&ki.byMaxDeg, qindexBucket(sum.MaxDegree()), e.slot)
	sigs := ftv.PathSignatures(e.Query, QueryPathLen)
	qi.sigs[e.slot] = sigs
	for _, s := range sigs {
		p := ki.byPath[s]
		if p == nil {
			p = bitset.New(e.slot + 1)
			ki.byPath[s] = p
		}
		p.Set(e.slot)
	}
}

// removeEntry drops e's postings and relation edges, releasing empty
// postings. Every edge touching e is registered in e's own sup/sub sets
// (reciprocals are written at admission), so cleanup is O(degree).
func (qi *queryIndex) removeEntry(e *Entry) {
	ki := &qi.kinds[e.Kind]
	sum := e.Query.Summary()
	ki.all.Clear(e.slot)
	qi.sup[e.slot].ForEach(func(s int) bool {
		qi.sub[s].Clear(e.slot)
		return true
	})
	qi.sub[e.slot].ForEach(func(s int) bool {
		qi.sup[s].Clear(e.slot)
		return true
	})
	qi.sup[e.slot], qi.sub[e.slot] = nil, nil
	qi.relKnown[e.slot] = false
	for _, lc := range sum.LabelCounts() {
		ki.labelRemove(lc.Label, lc.Count, e.slot)
	}
	bucketClear(ki.byVertices, qindexBucket(sum.Vertices()), e.slot)
	bucketClear(ki.byEdges, qindexBucket(sum.Edges()), e.slot)
	bucketClear(ki.byMaxDeg, qindexBucket(sum.MaxDegree()), e.slot)
	for _, s := range qi.sigs[e.slot] {
		if p := ki.byPath[s]; p != nil {
			p.Clear(e.slot)
			if p.None() {
				delete(ki.byPath, s)
			}
		}
	}
	delete(qi.sigs, e.slot)
}

// couldContain fills out with the slots of entries whose query could
// contain a query with the given summary and path signatures (a
// superset of the entries passing qf.SubsumedBy(e.Fp), and of those
// passing the decisive sub-iso test): intersection of the query's label
// and path postings, minus the buckets of entries smaller (or of lower
// maximum degree) than the query.
func (ki *kindIndex) couldContain(sum *graph.Summary, sigs []string, out *bitset.Set) {
	first := true
	for _, lc := range sum.LabelCounts() {
		// Entries must carry at least the query's count of each of its
		// labels (an embedding maps same-labeled vertices injectively).
		ps := ki.byLabel[lc.Label]
		kq := labelCap(lc.Count)
		if len(ps) < kq {
			out.Reset() // no cached query has enough of this label
			return
		}
		p := ps[kq-1]
		if first {
			out.CopyFrom(p)
			first = false
		} else {
			out.And(p)
		}
		if out.None() {
			return
		}
	}
	if first {
		// A query with no vertices is contained in everything.
		out.CopyFrom(ki.all)
	}
	for _, s := range sigs {
		p := ki.byPath[s]
		if p == nil {
			out.Reset()
			return
		}
		out.And(p)
		if out.None() {
			return
		}
	}
	cutBucketsBelow(out, ki.byVertices, qindexBucket(sum.Vertices()))
	cutBucketsBelow(out, ki.byEdges, qindexBucket(sum.Edges()))
	cutBucketsBelow(out, ki.byMaxDeg, qindexBucket(sum.MaxDegree()))
}

// couldBeContained fills out with the slots of entries whose query
// could be contained in a query with the given summary (a superset of
// the entries passing e.Fp.SubsumedBy(qf)): the kind's slot set minus
// postings of labels the query lacks and minus the buckets of entries
// larger (or of higher maximum degree) than the query. Path postings
// are not consulted in this direction — filtering "entries with a path
// outside the query's paths" would mean walking the whole posting map,
// defeating the lookup.
func (ki *kindIndex) couldBeContained(sum *graph.Summary, out *bitset.Set) {
	out.CopyFrom(ki.all)
	for l, ps := range ki.byLabel {
		// Entries needing more copies of a label than the query offers
		// cannot embed into it: cut the "≥ count+1" threshold posting
		// (for an absent label that is the "≥ 1" membership posting).
		cq := int(sum.LabelFreq(l))
		if cq < qindexLabelCountCap && cq < len(ps) {
			out.AndNot(ps[cq])
			if out.None() {
				return
			}
		}
	}
	cutBucketsAbove(out, ki.byVertices, qindexBucket(sum.Vertices()))
	cutBucketsAbove(out, ki.byEdges, qindexBucket(sum.Edges()))
	cutBucketsAbove(out, ki.byMaxDeg, qindexBucket(sum.MaxDegree()))
}

func cutBucketsBelow(out *bitset.Set, buckets []*bitset.Set, b int) {
	if b > len(buckets) {
		b = len(buckets)
	}
	for i := 0; i < b; i++ {
		if buckets[i] != nil {
			out.AndNot(buckets[i])
		}
	}
}

func cutBucketsAbove(out *bitset.Set, buckets []*bitset.Set, b int) {
	for i := b + 1; i < len(buckets); i++ {
		if buckets[i] != nil {
			out.AndNot(buckets[i])
		}
	}
}

// ForEachIsoCandidate visits the entries of the given kind whose
// indexed features exactly match query q's — equal size and max-degree
// buckets, equal (capped) per-label counts, and containing all of q's
// path signatures — the only entries that could be isomorphic to q.
// Iteration order is unspecified (candidates are interchangeable for an
// isomorphism probe); return false from fn to stop. sigs are q's path
// signatures at QueryPathLen: extraction (a DFS with string
// canonicalization) is the expensive part of a lookup, so the caller —
// whose query plan memoizes them across repeats — hands them in.
func (c *Cache) ForEachIsoCandidate(kind Kind, q *graph.Graph, sigs []string, fn func(e *Entry) bool) {
	qi := c.qidx
	ki := &qi.kinds[kind]
	sum := q.Summary()
	out := qi.containing
	ki.couldContain(sum, sigs, out)
	if out.None() {
		return
	}
	// couldContain already cut everything smaller than q; equality
	// additionally cuts everything larger.
	cutBucketsAbove(out, ki.byVertices, qindexBucket(sum.Vertices()))
	cutBucketsAbove(out, ki.byEdges, qindexBucket(sum.Edges()))
	cutBucketsAbove(out, ki.byMaxDeg, qindexBucket(sum.MaxDegree()))
	for _, lc := range sum.LabelCounts() {
		// Entries with more copies of one of q's labels cannot be
		// isomorphic to it (couldContain enforced "at least").
		if cq := labelCap(lc.Count); cq < qindexLabelCountCap {
			if ps := ki.byLabel[lc.Label]; cq < len(ps) {
				out.AndNot(ps[cq])
			}
		}
	}
	out.ForEach(func(slot int) bool {
		return fn(c.slots[slot])
	})
}

// ForEachRelated replays the memoized hit classification of base's
// query: it visits, in exactly the order ForEach uses, every live
// entry related to base — base itself plus the entries whose queries
// contain (contains=true) or are contained in (containedIn=true) it —
// with both flags true for base and any entry isomorphic to it. For a
// probe query isomorphic to base.Query this IS the hit classification
// (containment is isomorphism-invariant), so hit discovery for a
// repeated query costs zero query-to-query sub-iso tests.
//
// The visit count and true are returned when the relations are usable;
// false means base was admitted without relations, or some entry in
// this cache was (relations are pairwise, so one unknown entry poisons
// every set) — callers must then fall back to candidate classification.
func (c *Cache) ForEachRelated(base *Entry, fn func(e *Entry, contains, containedIn bool) bool) (int, bool) {
	qi := c.qidx
	if qi.relIncomplete || base.dead || !qi.relKnown[base.slot] {
		return 0, false
	}
	sup, sub := qi.sup[base.slot], qi.sub[base.slot]
	visited := 0
	visit := func(e *Entry) bool {
		contains := e == base || sup.Get(e.slot)
		containedIn := e == base || sub.Get(e.slot)
		if !contains && !containedIn {
			return true
		}
		visited++
		return fn(e, contains, containedIn)
	}
	for _, e := range c.window {
		if !visit(e) {
			return visited, true
		}
	}
	for _, e := range c.entries {
		if !visit(e) {
			return visited, true
		}
	}
	return visited, true
}

// ForEachHitCandidate visits, in exactly the order ForEach uses (window
// first, then admitted entries), every entry of the given kind the
// query index cannot rule out as a hit for query q, passing the
// directions that remain possible: mayContain means the entry's query
// could contain q ("fingerprints that could subsume q"), mayBeContained
// means q could contain it ("that q could subsume"). A false flag is a
// guarantee — the corresponding fingerprint subsumption, and hence the
// sub-iso test it gates, would fail — so index-backed hit discovery
// classifies and credits identically to the linear scan it replaces.
// Return false from fn to stop early. The number of entries visited is
// returned. sigs are q's path signatures, as for ForEachIsoCandidate.
// Lookup allocates nothing beyond the index's scratch sets.
//
// Order is produced by walking the window and entry stores and probing
// the candidate bitsets per entry — one O(1) membership test each,
// ~1000x cheaper than the fingerprint check the scan pays per entry.
// Enumerating the candidate bitsets instead would make the walk
// proportional to the candidates, but only at the price of re-sorting
// them into ForEach order (slots do not encode it); at the capacities
// this index targets the probe walk is noise next to the per-candidate
// classification it feeds.
func (c *Cache) ForEachHitCandidate(kind Kind, q *graph.Graph, sigs []string, fn func(e *Entry, mayContain, mayBeContained bool) bool) int {
	qi := c.qidx
	ki := &qi.kinds[kind]
	sum := q.Summary()
	ki.couldContain(sum, sigs, qi.containing)
	ki.couldBeContained(sum, qi.contained)
	visited := 0
	visit := func(e *Entry) bool {
		mayContain := qi.containing.Get(e.slot)
		mayBeContained := qi.contained.Get(e.slot)
		if !mayContain && !mayBeContained {
			return true
		}
		visited++
		return fn(e, mayContain, mayBeContained)
	}
	for _, e := range c.window {
		if !visit(e) {
			return visited
		}
	}
	for _, e := range c.entries {
		if !visit(e) {
			return visited
		}
	}
	return visited
}

// CheckQueryIndex verifies the query-index invariant: for each kind the
// postings hold exactly the live entries of that kind — slot membership
// in the kind set, in every label posting of the entry's query, in
// exactly its size buckets, and in exactly its path-signature postings —
// with no stray slots anywhere; and the relation graph is symmetric
// (a ∈ sup[b] ⟺ b ∈ sub[a]), references only live same-kind slots, and
// is present for exactly the live entries. A nil receiver trivially
// passes.
func (c *Cache) CheckQueryIndex() error {
	if c == nil {
		return nil
	}
	if err := c.checkRelationGraph(); err != nil {
		return err
	}
	type want struct {
		all, label, path, vbucket, ebucket, dbucket int
	}
	var wants [2]want
	var failed error
	c.ForEach(func(e *Entry) bool {
		ki := &c.qidx.kinds[e.Kind]
		sum := e.Query.Summary()
		if !ki.all.Get(e.slot) {
			failed = fmt.Errorf("cache: entry #%d missing from %s kind set", e.ID, e.Kind)
			return false
		}
		wants[e.Kind].all++
		for _, lc := range sum.LabelCounts() {
			ps := ki.byLabel[lc.Label]
			for k := 1; k <= labelCap(lc.Count); k++ {
				if len(ps) < k || !ps[k-1].Get(e.slot) {
					failed = fmt.Errorf("cache: entry #%d missing from label %d ≥%d posting", e.ID, lc.Label, k)
					return false
				}
				wants[e.Kind].label++
			}
		}
		vb, eb, db := qindexBucket(sum.Vertices()), qindexBucket(sum.Edges()), qindexBucket(sum.MaxDegree())
		if vb >= len(ki.byVertices) || ki.byVertices[vb] == nil || !ki.byVertices[vb].Get(e.slot) {
			failed = fmt.Errorf("cache: entry #%d missing from vertex bucket %d", e.ID, vb)
			return false
		}
		if eb >= len(ki.byEdges) || ki.byEdges[eb] == nil || !ki.byEdges[eb].Get(e.slot) {
			failed = fmt.Errorf("cache: entry #%d missing from edge bucket %d", e.ID, eb)
			return false
		}
		if db >= len(ki.byMaxDeg) || ki.byMaxDeg[db] == nil || !ki.byMaxDeg[db].Get(e.slot) {
			failed = fmt.Errorf("cache: entry #%d missing from max-degree bucket %d", e.ID, db)
			return false
		}
		wants[e.Kind].vbucket++
		wants[e.Kind].ebucket++
		wants[e.Kind].dbucket++
		sigs := ftv.PathSignatures(e.Query, QueryPathLen)
		stored := c.qidx.sigs[e.slot]
		if len(stored) != len(sigs) {
			failed = fmt.Errorf("cache: entry #%d stored %d path sigs, query has %d",
				e.ID, len(stored), len(sigs))
			return false
		}
		for _, s := range sigs {
			if p := ki.byPath[s]; p == nil || !p.Get(e.slot) {
				failed = fmt.Errorf("cache: entry #%d missing from path posting %q", e.ID, s)
				return false
			}
			wants[e.Kind].path++
		}
		return true
	})
	if failed != nil {
		return failed
	}
	for k := range c.qidx.kinds {
		ki := &c.qidx.kinds[k]
		got := want{all: ki.all.Count()}
		for _, ps := range ki.byLabel {
			for _, p := range ps {
				got.label += p.Count()
			}
		}
		for _, p := range ki.byPath {
			got.path += p.Count()
		}
		for _, p := range ki.byVertices {
			if p != nil {
				got.vbucket += p.Count()
			}
		}
		for _, p := range ki.byEdges {
			if p != nil {
				got.ebucket += p.Count()
			}
		}
		for _, p := range ki.byMaxDeg {
			if p != nil {
				got.dbucket += p.Count()
			}
		}
		if got != wants[k] {
			return fmt.Errorf("cache: query index for kind %v holds %+v pairs, entries need %+v",
				Kind(k), got, wants[k])
		}
	}
	return nil
}

// checkRelationGraph verifies the memoized relation sets: allocated for
// exactly the live slots, symmetric, and kind-homogeneous.
func (c *Cache) checkRelationGraph() error {
	qi := c.qidx
	live := make(map[int]*Entry)
	c.ForEach(func(e *Entry) bool {
		live[e.slot] = e
		return true
	})
	for slot := 0; slot < len(qi.sup); slot++ {
		e := live[slot]
		if e == nil {
			if qi.sup[slot] != nil || qi.sub[slot] != nil || qi.relKnown[slot] {
				return fmt.Errorf("cache: free slot %d still carries relation state", slot)
			}
			continue
		}
		if qi.sup[slot] == nil || qi.sub[slot] == nil {
			return fmt.Errorf("cache: entry #%d has no relation sets", e.ID)
		}
		var err error
		check := func(set *bitset.Set, mirror func(int) *bitset.Set, dir string) {
			set.ForEach(func(s int) bool {
				o := live[s]
				if o == nil {
					err = fmt.Errorf("cache: entry #%d %s-related to dead slot %d", e.ID, dir, s)
					return false
				}
				if o.Kind != e.Kind {
					err = fmt.Errorf("cache: entry #%d %s-related across kinds to #%d", e.ID, dir, o.ID)
					return false
				}
				if !mirror(s).Get(slot) {
					err = fmt.Errorf("cache: relation #%d→#%d (%s) not mirrored", e.ID, o.ID, dir)
					return false
				}
				return true
			})
		}
		check(qi.sup[slot], func(s int) *bitset.Set { return qi.sub[s] }, "sup")
		if err == nil {
			check(qi.sub[slot], func(s int) *bitset.Set { return qi.sup[s] }, "sub")
		}
		if err != nil {
			return err
		}
	}
	return nil
}
