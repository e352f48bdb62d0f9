package cache

import (
	"fmt"

	"gcplus/internal/bitset"
)

// This file implements the entry slot table and the repair queue — the
// bookkeeping behind the relation graph and the background cache-repair
// pipeline.
//
// # Slot table
//
// Every live entry occupies a slot: a small dense index recycled as
// entries are admitted and evicted. The relation graph (relations.go)
// addresses entries by slot so its bitsets stay compact no matter how
// many cache generations the server has seen.
//
// # Repair queue
//
// Every bit the Validator clears is a candidate for off-path repair:
// re-verifying the (entry.Query, graph) relation against the current
// dataset version restores the bit without waiting for a future query
// to rediscover the fact on the hot path. Cleared pairs are appended to
// a bounded FIFO; the repair pipeline (internal/core + internal/router)
// drains it, re-verifies with forked compiled matchers, and calls
// RestoreBit. When the queue is full, further pairs are dropped and
// counted — a dropped pair simply stays invalid, which is exactly the
// pre-repair behavior.

// RepairTask identifies one invalidated (entry, graph) pair queued for
// off-path re-verification.
type RepairTask struct {
	// Entry is the cached query whose bit was cleared. It may have been
	// evicted since the pair was queued; RestoreBit checks.
	Entry *Entry
	// GraphID is the dataset graph whose validity bit was cleared.
	GraphID int
}

// assignSlot places e into the slot table, reusing a free slot if any.
func (c *Cache) assignSlot(e *Entry) {
	if n := len(c.freeSlots); n > 0 {
		e.slot = c.freeSlots[n-1]
		c.freeSlots = c.freeSlots[:n-1]
		c.slots[e.slot] = e
		return
	}
	e.slot = len(c.slots)
	c.slots = append(c.slots, e)
}

// releaseEntry removes an evicted or purged entry from the relation graph
// and returns its slot to the free list. The entry is marked dead so
// queued repair tasks referring to it are skipped.
func (c *Cache) releaseEntry(e *Entry) {
	c.rel.removeEntry(e)
	c.slots[e.slot] = nil
	c.freeSlots = append(c.freeSlots, e.slot)
	e.dead = true
}

// invalidate clears the (e, id) validity bit and queues the pair for
// background repair (when a repair queue is configured). Caller
// guarantees the bit is currently set.
func (c *Cache) invalidate(e *Entry, id int) {
	e.Valid.Clear(id)
	if c.cfg.RepairQueue <= 0 {
		return
	}
	if len(c.repairQ) >= c.cfg.RepairQueue {
		c.repairDropped++
		return
	}
	c.repairQ = append(c.repairQ, RepairTask{Entry: e, GraphID: id})
}

// PendingRepairs returns the number of queued invalidated pairs.
func (c *Cache) PendingRepairs() int { return len(c.repairQ) }

// DrainRepairs pops up to max queued pairs in FIFO order, skipping
// pairs whose entry has been evicted or purged since they were queued.
func (c *Cache) DrainRepairs(max int) []RepairTask {
	if max <= 0 || len(c.repairQ) == 0 {
		return nil
	}
	out := make([]RepairTask, 0, min(max, len(c.repairQ)))
	i := 0
	for ; i < len(c.repairQ) && len(out) < max; i++ {
		if t := c.repairQ[i]; !t.Entry.dead {
			out = append(out, t)
		}
	}
	c.repairQ = c.repairQ[i:]
	if len(c.repairQ) == 0 {
		c.repairQ = nil // release the drained backing array
	}
	return out
}

// RestoreBit atomically restores one (entry, graph) validity bit after
// an off-path re-verification: the Answer bit is overwritten with the
// freshly verified relation (positive = the entry's recorded relation
// holds for the current graph version) and the Valid bit is set. It
// returns false — and changes nothing — if the entry has been evicted
// or purged since the pair was queued. Callers own the staleness check
// on the *graph* side: the bit asserted here is a fact about the
// dataset graph version current at call time.
func (c *Cache) RestoreBit(e *Entry, id int, positive bool) bool {
	if e.dead {
		return false
	}
	e.Answer.SetTo(id, positive)
	e.Valid.Set(id)
	c.repairedBits++
	return true
}

// RefreshEntry overwrites an entry's answer snapshot and validity
// indicator in place — the isomorphic-hit admission path, where a
// just-executed query refreshes its cached twin instead of duplicating
// it — and bumps its recency.
func (c *Cache) RefreshEntry(e *Entry, answer, valid *bitset.Set) {
	e.Answer.CopyFrom(answer)
	e.Valid.CopyFrom(valid)
	e.Seq = c.appliedSeq
	e.LastUsed = c.Tick()
}

// ValidityRatio returns the fraction of (entry, live graph) validity
// bits currently set across cache and window — the health metric the
// repair pipeline recovers after update churn. An empty cache (or an
// empty live set) is vacuously fully valid (ratio 1).
func (c *Cache) ValidityRatio(live *bitset.Set) float64 {
	entries := len(c.entries) + len(c.window)
	liveCount := live.Count()
	if entries == 0 || liveCount == 0 {
		return 1
	}
	valid := 0
	c.ForEach(func(e *Entry) bool {
		valid += e.Valid.IntersectionCount(live)
		return true
	})
	return float64(valid) / float64(entries*liveCount)
}

// CheckIndex verifies the bookkeeping invariants Validate, the repair
// pipeline and hit replay rely on: every live entry occupies its slot
// and is not marked dead, the admitted store followed by the window is
// in strictly ascending entry-ID order (the order Validate sweeps, and
// so the repair queue's order within a graph id), the repair queue
// holds no nil entry, and the relation graph is symmetric
// (a ∈ sup[b] ⟺ b ∈ sub[a]), references only live same-kind slots, and
// is present for exactly the live entries. Tests call it (via
// testutil.RequireCacheIndex) after every mutation sequence. A nil
// receiver (cache disabled) trivially passes, so helpers can check a
// runtime's cache without caring whether one exists.
func (c *Cache) CheckIndex() error {
	if c == nil {
		return nil
	}
	prevID := -1
	for _, store := range c.sweepOrder() {
		for _, e := range store {
			switch {
			case e.dead:
				return fmt.Errorf("cache: live entry #%d marked dead", e.ID)
			case e.slot < 0 || e.slot >= len(c.slots) || c.slots[e.slot] != e:
				return fmt.Errorf("cache: entry #%d slot %d does not map back to it", e.ID, e.slot)
			case e.ID <= prevID:
				return fmt.Errorf("cache: entry #%d follows #%d: sweep order is not ascending by ID", e.ID, prevID)
			}
			prevID = e.ID
		}
	}
	for _, t := range c.repairQ {
		if t.Entry == nil {
			return fmt.Errorf("cache: nil entry in repair queue")
		}
	}
	return c.checkRelationGraph()
}
