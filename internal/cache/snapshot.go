package cache

import (
	"fmt"

	"gcplus/internal/bitset"
	"gcplus/internal/feature"
	"gcplus/internal/graph"
)

// This file implements cache state export/import for the durability
// subsystem (internal/persist): a Snapshot captures every admitted and
// windowed entry — query graph, answer snapshot, validity indicator,
// Statistics Manager bookkeeping — plus the memoized query-to-query
// relation graph and the pending repair queue, so a restarted server
// resumes with a warm cache instead of re-executing every query.
//
// The slot table is *rebuilt* from the restored entries rather than
// persisted: it is a pure function of entry state, and rebuilding keeps
// the on-disk format independent of slot numbering. The relation graph
// is the exception — its edges are the product of pairwise sub-iso tests
// at admission time and cannot be recomputed cheaply, so Snapshot
// carries them explicitly.

// EntrySnapshot is the exported state of one cached query. All fields
// are plain values or owned copies; mutating the live cache after export
// does not affect a snapshot.
type EntrySnapshot struct {
	// ID is the entry's cache-unique id (eviction tiebreak).
	ID int
	// Query is the cached query graph (shared pointer; graphs are
	// immutable once published).
	Query *graph.Graph
	// Kind is the query kind.
	Kind Kind
	// Answer and Valid are clones of the entry's answer snapshot and
	// validity indicator.
	Answer, Valid *bitset.Set
	// Seq is the dataset log sequence number Valid reflects.
	Seq uint64
	// R, CostEst, Hits and LastUsed are the Statistics Manager fields
	// feeding the replacement policies.
	R        float64
	CostEst  float64
	Hits     int64
	LastUsed int64
	// RelKnown reports whether the entry was admitted with its hit
	// classification (AddWithRelations with non-nil slices).
	RelKnown bool
	// Sup and Sub list the snapshot indices (into Snapshot.Entries)
	// of entries whose queries contain / are contained in this one —
	// the memoized relation graph's adjacency, symmetric across the
	// snapshot.
	Sup, Sub []int
}

// RepairRef is one queued invalidated pair, referencing its entry by
// snapshot index.
type RepairRef struct {
	EntryIdx int
	GraphID  int
}

// Snapshot is a full cache state export.
type Snapshot struct {
	// Entries holds every live entry: the admitted store in order,
	// then the admission window in order.
	Entries []EntrySnapshot
	// WindowStart is the index of the first window entry in Entries.
	WindowStart int
	// NextID, Clock and AppliedSeq restore id assignment, the logical
	// recency clock and the reconciliation cursor.
	NextID     int
	Clock      int64
	AppliedSeq uint64
	// Lifetime counters.
	Admitted, Evicted, Purges, Validates int64
	RepairedBits, RepairDropped          int64
	// RelIncomplete marks a cache whose relation graph is unusable
	// (some entry — possibly since evicted — was admitted without
	// relations); restored caches inherit the flag.
	RelIncomplete bool
	// RepairQueue is the pending repair queue in FIFO order.
	RepairQueue []RepairRef
}

// Export snapshots the full cache state. The snapshot is immutable with
// respect to subsequent cache mutations (bitsets are cloned; graphs are
// shared immutable values).
func (c *Cache) Export() *Snapshot {
	s := &Snapshot{
		Entries:       make([]EntrySnapshot, 0, len(c.entries)+len(c.window)),
		WindowStart:   len(c.entries),
		NextID:        c.nextID,
		Clock:         c.clock,
		AppliedSeq:    c.appliedSeq,
		Admitted:      c.admitted,
		Evicted:       c.evicted,
		Purges:        c.purges,
		Validates:     c.validates,
		RepairedBits:  c.repairedBits,
		RepairDropped: c.repairDropped,
	}
	// Slot → snapshot index, for relation and repair-queue references.
	slotIdx := make(map[int]int, cap(s.Entries))
	export := func(e *Entry) {
		slotIdx[e.slot] = len(s.Entries)
		s.Entries = append(s.Entries, EntrySnapshot{
			ID:       e.ID,
			Query:    e.Query,
			Kind:     e.Kind,
			Answer:   e.Answer.Clone(),
			Valid:    e.Valid.Clone(),
			Seq:      e.Seq,
			R:        e.R,
			CostEst:  e.CostEst,
			Hits:     e.Hits,
			LastUsed: e.LastUsed,
		})
	}
	for _, e := range c.entries {
		export(e)
	}
	for _, e := range c.window {
		export(e)
	}
	s.RelIncomplete = c.rel.relIncomplete
	for _, e := range c.entries {
		c.exportRelations(e, slotIdx, s)
	}
	for _, e := range c.window {
		c.exportRelations(e, slotIdx, s)
	}
	for _, t := range c.repairQ {
		if t.Entry.dead {
			continue
		}
		s.RepairQueue = append(s.RepairQueue, RepairRef{EntryIdx: slotIdx[t.Entry.slot], GraphID: t.GraphID})
	}
	return s
}

func (c *Cache) exportRelations(e *Entry, slotIdx map[int]int, s *Snapshot) {
	i := slotIdx[e.slot]
	es := &s.Entries[i]
	es.RelKnown = c.rel.relKnown[e.slot]
	c.rel.sup[e.slot].ForEach(func(slot int) bool {
		es.Sup = append(es.Sup, slotIdx[slot])
		return true
	})
	c.rel.sub[e.slot].ForEach(func(slot int) bool {
		es.Sub = append(es.Sub, slotIdx[slot])
		return true
	})
}

// Restore rebuilds the cache from a snapshot. The receiver must be
// freshly constructed (New, no entries admitted yet); the slot table is
// rebuilt from the restored entries, and the relation graph is replayed
// from the snapshot's adjacency. Entry IDs must ascend strictly across
// Entries and stay below NextID, as every exported snapshot's do:
// Validate sweeps in that order. Restoring into a cache whose
// configuration differs from the exporter's is allowed — capacity and
// window bounds re-assert themselves at the next admission.
func (c *Cache) Restore(s *Snapshot) error {
	if len(c.entries) != 0 || len(c.window) != 0 || c.nextID != 0 {
		return fmt.Errorf("cache: Restore requires a fresh cache (have %d entries, %d windowed, nextID %d)",
			len(c.entries), len(c.window), c.nextID)
	}
	if s.WindowStart < 0 || s.WindowStart > len(s.Entries) {
		return fmt.Errorf("cache: snapshot window start %d out of range [0,%d]", s.WindowStart, len(s.Entries))
	}
	restored := make([]*Entry, len(s.Entries))
	prevID := -1
	for i := range s.Entries {
		es := &s.Entries[i]
		if es.Query == nil {
			return fmt.Errorf("cache: snapshot entry %d has no query graph", i)
		}
		if es.ID <= prevID || es.ID >= s.NextID {
			return fmt.Errorf("cache: snapshot entry %d has ID %d, want above %d and below NextID %d", i, es.ID, prevID, s.NextID)
		}
		prevID = es.ID
		e := &Entry{
			ID:       es.ID,
			Query:    es.Query,
			Kind:     es.Kind,
			Fp:       feature.Of(es.Query),
			Answer:   es.Answer.Clone(),
			Valid:    es.Valid.Clone(),
			Seq:      es.Seq,
			R:        es.R,
			CostEst:  es.CostEst,
			Hits:     es.Hits,
			LastUsed: es.LastUsed,
		}
		restored[i] = e
		c.assignSlot(e)
		// Replay the relation graph: each unordered pair is recorded
		// once, when its higher-indexed member is added — exactly how
		// admission built it — so reciprocal writes in addEntry
		// reconstruct the full symmetric adjacency.
		var containing, contained []*Entry
		if es.RelKnown {
			containing, contained = []*Entry{}, []*Entry{}
			for _, j := range es.Sup {
				if j < 0 || j >= len(s.Entries) {
					return fmt.Errorf("cache: snapshot entry %d sup-related to out-of-range index %d", i, j)
				}
				if j < i {
					containing = append(containing, restored[j])
				}
			}
			for _, j := range es.Sub {
				if j < 0 || j >= len(s.Entries) {
					return fmt.Errorf("cache: snapshot entry %d sub-related to out-of-range index %d", i, j)
				}
				if j < i {
					contained = append(contained, restored[j])
				}
			}
		}
		c.rel.addEntry(e, containing, contained)
	}
	c.entries = append(c.entries, restored[:s.WindowStart]...)
	c.window = append(c.window, restored[s.WindowStart:]...)
	c.nextID = s.NextID
	c.clock = s.Clock
	c.appliedSeq = s.AppliedSeq
	c.admitted = s.Admitted
	c.evicted = s.Evicted
	c.purges = s.Purges
	c.validates = s.Validates
	c.repairedBits = s.RepairedBits
	c.repairDropped = s.RepairDropped
	if s.RelIncomplete {
		c.rel.relIncomplete = true
	}
	for _, ref := range s.RepairQueue {
		if ref.EntryIdx < 0 || ref.EntryIdx >= len(restored) {
			return fmt.Errorf("cache: snapshot repair ref to out-of-range entry %d", ref.EntryIdx)
		}
		if c.cfg.RepairQueue <= 0 || len(c.repairQ) >= c.cfg.RepairQueue {
			c.repairDropped++
			continue
		}
		c.repairQ = append(c.repairQ, RepairTask{Entry: restored[ref.EntryIdx], GraphID: ref.GraphID})
	}
	return nil
}
