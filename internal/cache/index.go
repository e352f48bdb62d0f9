package cache

import (
	"fmt"
	"sort"

	"gcplus/internal/bitset"
)

// This file implements the inverted invalidation index and the repair
// queue — the data structures behind the background cache-repair
// pipeline.
//
// # Inverted invalidation index
//
// Algorithm 2's original sweep visits every cached entry for every
// logged operation. The index inverts the validity relation: for each
// dataset graph id it records the set of entries whose CGvalid bit
// covers that graph, so the Cache Validator touches exactly the
// (entry, graph) pairs an operation can invalidate — entries whose bit
// is already dead cost nothing. Entry sets are bitsets over *slots*,
// small dense indices recycled as entries are admitted and evicted, so
// the index stays compact no matter how many graph ids or cache
// generations the server has seen.
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

// invIndex maps a dataset graph id to the slots of entries whose Valid
// bit covers it.
type invIndex struct {
	byGraph map[int]*bitset.Set
}

func newInvIndex() *invIndex {
	return &invIndex{byGraph: make(map[int]*bitset.Set)}
}

func (ix *invIndex) add(id, slot int) {
	s := ix.byGraph[id]
	if s == nil {
		s = bitset.New(slot + 1)
		ix.byGraph[id] = s
	}
	s.Set(slot)
}

func (ix *invIndex) remove(id, slot int) {
	if s := ix.byGraph[id]; s != nil {
		s.Clear(slot)
		if s.None() {
			delete(ix.byGraph, id)
		}
	}
}

// addEntry indexes every valid bit of e.
func (ix *invIndex) addEntry(e *Entry) {
	e.Valid.ForEach(func(id int) bool {
		ix.add(id, e.slot)
		return true
	})
}

// removeEntry drops every valid bit of e from the index.
func (ix *invIndex) removeEntry(e *Entry) {
	e.Valid.ForEach(func(id int) bool {
		ix.remove(id, e.slot)
		return true
	})
}

// pairs returns the total number of (graph, entry) pairs indexed.
func (ix *invIndex) pairs() int {
	n := 0
	for _, s := range ix.byGraph {
		n += s.Count()
	}
	return n
}

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

// releaseEntry removes an evicted or purged entry from both indexes and
// returns its slot to the free list. The entry is marked dead so queued
// repair tasks referring to it are skipped.
func (c *Cache) releaseEntry(e *Entry) {
	c.idx.removeEntry(e)
	c.qidx.removeEntry(e)
	c.slots[e.slot] = nil
	c.freeSlots = append(c.freeSlots, e.slot)
	e.dead = true
}

// invalidate clears the (e, id) validity bit, maintains the index, and
// queues the pair for background repair (when a repair queue is
// configured). Caller guarantees the bit is currently set.
func (c *Cache) invalidate(e *Entry, id int) {
	e.Valid.Clear(id)
	c.idx.remove(id, e.slot)
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
// holds for the current graph version) and the Valid bit is set, with
// the invalidation index maintained. It returns false — and changes
// nothing — if the entry has been evicted or purged since the pair was
// queued. Callers own the staleness check on the *graph* side: the bit
// asserted here is a fact about the dataset graph version current at
// call time.
func (c *Cache) RestoreBit(e *Entry, id int, positive bool) bool {
	if e.dead {
		return false
	}
	e.Answer.SetTo(id, positive)
	e.Valid.Set(id)
	c.idx.add(id, e.slot)
	c.repairedBits++
	return true
}

// RefreshEntry overwrites an entry's answer snapshot and validity
// indicator in place — the isomorphic-hit admission path, where a
// just-executed query refreshes its cached twin instead of duplicating
// it. The index is rebuilt for the entry and its recency bumped.
func (c *Cache) RefreshEntry(e *Entry, answer, valid *bitset.Set) {
	c.idx.removeEntry(e)
	e.Answer.CopyFrom(answer)
	e.Valid.CopyFrom(valid)
	e.Seq = c.appliedSeq
	e.LastUsed = c.Tick()
	c.idx.addEntry(e)
}

// RepairCounters reports the lifetime repair counters: bits restored by
// RestoreBit and pairs dropped on a full queue.
func (c *Cache) RepairCounters() (restored, dropped int64) {
	return c.repairedBits, c.repairDropped
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

// CheckIndex verifies the invalidation-index invariant: the index holds
// exactly the pairs {(id, e) : e alive ∧ e.Valid(id)}, every live entry
// occupies its slot, and no dead entry is referenced. Tests call it
// (via testutil.RequireCacheIndex) after every mutation sequence. A nil
// receiver (cache disabled) trivially passes, so helpers can check a
// runtime's cache without caring whether one exists.
func (c *Cache) CheckIndex() error {
	if c == nil {
		return nil
	}
	seen := 0
	err := func() error {
		var failed error
		c.ForEach(func(e *Entry) bool {
			if e.dead {
				failed = fmt.Errorf("cache: live entry #%d marked dead", e.ID)
				return false
			}
			if e.slot < 0 || e.slot >= len(c.slots) || c.slots[e.slot] != e {
				failed = fmt.Errorf("cache: entry #%d slot %d does not map back to it", e.ID, e.slot)
				return false
			}
			var badID int = -1
			e.Valid.ForEach(func(id int) bool {
				s := c.idx.byGraph[id]
				if s == nil || !s.Get(e.slot) {
					badID = id
					return false
				}
				return true
			})
			if badID >= 0 {
				failed = fmt.Errorf("cache: entry #%d valid on graph %d but not indexed", e.ID, badID)
				return false
			}
			seen += e.Valid.Count()
			return true
		})
		return failed
	}()
	if err != nil {
		return err
	}
	if got := c.idx.pairs(); got != seen {
		return fmt.Errorf("cache: index holds %d pairs, entries hold %d valid bits", got, seen)
	}
	for _, t := range c.repairQ {
		if t.Entry == nil {
			return fmt.Errorf("cache: nil entry in repair queue")
		}
	}
	return nil
}

// slotsAscending returns the live entries for the given slot set in
// ascending slot order — the deterministic iteration order the Validator
// uses so repair-queue contents do not depend on map iteration.
func (c *Cache) slotsAscending(s *bitset.Set) []*Entry {
	out := make([]*Entry, 0, s.Count())
	s.ForEach(func(slot int) bool {
		if e := c.slots[slot]; e != nil {
			out = append(out, e)
		}
		return true
	})
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out
}
