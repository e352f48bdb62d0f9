package cache

import (
	"sort"

	"gcplus/internal/dataset"
)

// This file implements the Cache Validator component — Algorithm 2 of the
// paper ("Refreshing a cached graph's validity indicator") — generalized
// to both query kinds.
//
// For a cached subgraph query g and a dataset graph Gi touched by the log:
//
//   - if the operations on Gi were exclusively UA (edge additions) and the
//     cached result is a valid positive (g ⊆ Gi), the bit survives: adding
//     edges cannot destroy an embedding of g in Gi;
//   - if the operations were exclusively UR (edge removals) and the cached
//     result is a valid negative (g ⊄ Gi), the bit survives: an embedding
//     into the shrunken Gi would also be an embedding into the original;
//   - everything else — DEL, ADD (a fresh id can collide with CT only via
//     its own creation), mixed UA+UR — turns the bit off.
//
// For a cached supergraph query (Answer records Gi ⊆ g) the two survival
// rules swap roles, by the same monotonicity arguments applied on the
// other side of the relation:
//
//   - UR-exclusive preserves positives: Gi ⊆ g and Gi shrinks ⇒ the
//     smaller Gi is a subgraph of the old Gi, hence still ⊆ g;
//   - UA-exclusive preserves negatives: Gi ⊄ g and Gi grows ⇒ if the
//     grown Gi embedded into g, so would its subgraph, the old Gi.
//
// New dataset ids carry no information about older cached queries: their
// validity bits are (implicitly) false — bitset.Get beyond the written
// range returns false, which realizes Algorithm 2's lines 4–6 without an
// explicit extension step.

// sweepOrder returns the admitted store and the window, in that order:
// together they list every entry in strictly ascending ID order, because
// IDs are assigned at admission, the window flushes onto the end of the
// store, and eviction keeps the survivors' order. CheckIndex asserts it.
func (c *Cache) sweepOrder() [2][]*Entry {
	return [2][]*Entry{c.entries, c.window}
}

// Validate runs the Cache Validator over every cached and windowed entry
// (the paper: "cached graphs/queries by default cover those previous
// queries in both cache and window"). Counters must describe exactly the
// log records in (AppliedSeq, seq]. When the cache was configured with
// StrictInvalidation, the ablated rule is used.
//
// This is Algorithm 2's per-entry sweep with the two loops swapped: for
// each touched graph id, ascending, it visits the entries in ascending
// ID order and skips those whose bit is already dead (Algorithm 2 can
// only ever *clear* bits). Each bit it clears is queued for background
// repair (when configured), so the queue lists pairs by graph id, then
// entry ID. The result is bit-identical to running Refresh/RefreshStrict
// on every entry.
func (c *Cache) Validate(ctrs *dataset.Counters, seq uint64) {
	strict := c.cfg.StrictInvalidation
	touched := ctrs.TouchedIDs()
	sort.Ints(touched) // counters are a map; fix the order so the repair queue is deterministic
	stores := c.sweepOrder()
	for _, id := range touched {
		keepPositive := ctrs.UAExclusive(id)
		keepNegative := ctrs.URExclusive(id)
		for _, store := range stores {
			for _, e := range store {
				if !e.Valid.Get(id) {
					continue
				}
				kp, kn := keepPositive, keepNegative
				if e.Kind == KindSuper {
					kp, kn = kn, kp
				}
				positive := e.Answer.Get(id)
				if !strict && ((kp && positive) || (kn && !positive)) {
					continue // validity survives (Algorithm 2 lines 12–15)
				}
				c.invalidate(e, id) // Algorithm 2 line 17, repair-queued
			}
		}
	}
	for _, e := range c.entries {
		e.Seq = seq
	}
	for _, e := range c.window {
		e.Seq = seq
	}
	c.appliedSeq = seq
}
