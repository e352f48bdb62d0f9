package cache

import (
	"fmt"

	"gcplus/internal/bitset"
)

// This file implements the query-to-query relation graph: which live
// same-kind entries contain, or are contained in, which others. Hit
// discovery itself is a fingerprint scan over the entries (the runtime's
// findHits); what the relation graph adds is the replay path: a repeated
// query that proves isomorphic to a cached entry reads its whole hit
// classification from the entry's relation sets (ForEachRelated), with
// zero query-to-query sub-iso tests, in the style of one-hop sub-query
// caches.
//
// # Consistency
//
// The relations are maintained by exactly the two mutation points every
// entry passes through: Cache.AddWithRelations (admission to the
// window) and Cache.releaseEntry (eviction, purge). Window flush moves
// entries between stores without changing their slot, so nothing to do;
// RefreshEntry and repair commits (RestoreBit) rewrite an entry's
// Answer/Valid bitsets but never its query graph, so relations — facts
// about query structure only — stay exact. CheckIndex verifies the
// invariant after every mutation sequence in tests, and FuzzQueryIndex
// drives random op streams against it.

// relationGraph memoizes the query-to-query containment relations among
// live same-kind entries. The relations fall out of hit discovery for
// free — when an entry is admitted, the query that produced it was just
// classified against every live same-kind entry — and every pair of live
// entries had its relation computed when the younger one was admitted,
// so the graph is complete.
type relationGraph struct {
	// sup/sub, indexed by slot: sup[s] holds the slots of entries whose
	// query contains slot s's query, sub[s] those it contains. Symmetry
	// invariant: a ∈ sup[b] ⟺ b ∈ sub[a].
	sup, sub []*bitset.Set
	// relKnown marks slots admitted with their relations; entries added
	// without them (AddWithRelations(e, nil, nil), i.e. the bare Add
	// used by cache-level tests) leave the slot readable for reciprocal
	// bookkeeping but unusable as a replay base.
	relKnown []bool
	// relIncomplete is set once any entry was admitted without
	// relations: pairs involving it are missing everywhere, so the
	// whole replay path is disabled for this cache instance. The runtime
	// always admits with relations; only raw test admissions trip this.
	relIncomplete bool
}

// addEntry records e's relations under its assigned slot. containing/
// contained are the live entries whose queries contain / are contained
// in e.Query (nil when unknown, which disables replay — see
// relIncomplete); reciprocal edges are recorded on the spot so the
// graph stays symmetric.
func (rg *relationGraph) addEntry(e *Entry, containing, contained []*Entry) {
	for len(rg.sup) <= e.slot {
		rg.sup = append(rg.sup, nil)
		rg.sub = append(rg.sub, nil)
		rg.relKnown = append(rg.relKnown, false)
	}
	rg.sup[e.slot] = bitset.New(e.slot + 1)
	rg.sub[e.slot] = bitset.New(e.slot + 1)
	rg.relKnown[e.slot] = containing != nil || contained != nil
	if !rg.relKnown[e.slot] {
		rg.relIncomplete = true
	}
	for _, s := range containing {
		rg.sup[e.slot].Set(s.slot)
		rg.sub[s.slot].Set(e.slot)
	}
	for _, s := range contained {
		rg.sub[e.slot].Set(s.slot)
		rg.sup[s.slot].Set(e.slot)
	}
}

// removeEntry drops e's relation edges. Every edge touching e is
// registered in e's own sup/sub sets (reciprocals are written at
// admission), so cleanup is O(degree).
func (rg *relationGraph) removeEntry(e *Entry) {
	rg.sup[e.slot].ForEach(func(s int) bool {
		rg.sub[s].Clear(e.slot)
		return true
	})
	rg.sub[e.slot].ForEach(func(s int) bool {
		rg.sup[s].Clear(e.slot)
		return true
	})
	rg.sup[e.slot], rg.sub[e.slot] = nil, nil
	rg.relKnown[e.slot] = false
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
// every set) — callers must then fall back to classifying entries.
func (c *Cache) ForEachRelated(base *Entry, fn func(e *Entry, contains, containedIn bool) bool) (int, bool) {
	rg := &c.rel
	if rg.relIncomplete || base.dead || !rg.relKnown[base.slot] {
		return 0, false
	}
	sup, sub := rg.sup[base.slot], rg.sub[base.slot]
	visited := 0
	c.ForEach(func(e *Entry) bool {
		contains := e == base || sup.Get(e.slot)
		containedIn := e == base || sub.Get(e.slot)
		if !contains && !containedIn {
			return true
		}
		visited++
		return fn(e, contains, containedIn)
	})
	return visited, true
}

// checkRelationGraph verifies the memoized relation sets: allocated for
// exactly the live slots, symmetric, and kind-homogeneous.
func (c *Cache) checkRelationGraph() error {
	rg := &c.rel
	live := make(map[int]*Entry)
	c.ForEach(func(e *Entry) bool {
		live[e.slot] = e
		return true
	})
	for slot := 0; slot < len(rg.sup); slot++ {
		e := live[slot]
		if e == nil {
			if rg.sup[slot] != nil || rg.sub[slot] != nil || rg.relKnown[slot] {
				return fmt.Errorf("cache: free slot %d still carries relation state", slot)
			}
			continue
		}
		if rg.sup[slot] == nil || rg.sub[slot] == nil {
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
		check(rg.sup[slot], func(s int) *bitset.Set { return rg.sub[s] }, "sup")
		if err == nil {
			check(rg.sub[slot], func(s int) *bitset.Set { return rg.sup[s] }, "sub")
		}
		if err != nil {
			return err
		}
	}
	return nil
}
