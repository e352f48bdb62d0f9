package cache

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"gcplus/internal/bitset"
	"gcplus/internal/dataset"
	"gcplus/internal/graph"
	"gcplus/internal/subiso"
)

// requireIndex is the in-package form of testutil.RequireCacheIndex
// (testutil imports cache, so cache's own tests cannot import it back).
func requireIndex(t testing.TB, c *Cache) {
	t.Helper()
	if err := c.CheckIndex(); err != nil {
		t.Fatal(err)
	}
}

func randomEntry(rng *rand.Rand, maxID int) *Entry {
	kind := KindSub
	if rng.Intn(2) == 1 {
		kind = KindSuper
	}
	answer := bitset.New(maxID)
	valid := bitset.New(maxID)
	for id := 0; id < maxID; id++ {
		if rng.Intn(2) == 0 {
			valid.Set(id)
		}
		if rng.Intn(3) == 0 {
			answer.Set(id)
		}
	}
	e := NewEntry(graph.Path(1, 2), kind, answer, valid, 0, 1)
	e.R = float64(rng.Intn(50))
	return e
}

// TestIndexAcrossAdmitEvictPurge drives the full entry lifecycle —
// admission, window flush, eviction, validation, iso-hit refresh, repair
// restore, purge — checking the slot-table and sweep-order invariants
// after every mutation and every validation against the reference.
func TestIndexAcrossAdmitEvictPurge(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	c := New(Config{Capacity: 8, WindowSize: 3, Policy: PolicyPIN, RepairQueue: 64})
	const maxID = 12
	for i := 0; i < 40; i++ {
		c.Add(randomEntry(rng, maxID))
		requireIndex(t, c)
		if rng.Intn(4) == 0 {
			id := rng.Intn(maxID)
			op := dataset.OpUpdateAddEdge
			if rng.Intn(2) == 0 {
				op = dataset.OpUpdateRemoveEdge
			}
			seq := c.AppliedSeq() + 1
			validateAgainstReference(t, c, dataset.Analyze([]dataset.Record{{Seq: seq, Op: op, GraphID: id}}), seq)
			requireIndex(t, c)
		}
		if rng.Intn(6) == 0 {
			var live []*Entry
			c.ForEach(func(e *Entry) bool {
				live = append(live, e)
				return true
			})
			c.RefreshEntry(live[rng.Intn(len(live))], bitset.FromIndices(rng.Intn(maxID)), bitset.FromIndices(0, 1, 2, 3))
			requireIndex(t, c)
		}
		if rng.Intn(5) == 0 {
			for _, task := range c.DrainRepairs(4) {
				c.RestoreBit(task.Entry, task.GraphID, rng.Intn(2) == 0)
				requireIndex(t, c)
			}
		}
	}
	if c.Size() != 8 {
		t.Fatalf("size %d, want capacity 8", c.Size())
	}
	c.Purge()
	requireIndex(t, c)
	if c.PendingRepairs() != 0 {
		t.Fatalf("purge left %d queued repairs", c.PendingRepairs())
	}
	// The cache remains usable after a purge: slots are recycled.
	c.Add(randomEntry(rng, maxID))
	requireIndex(t, c)
}

// repairPair is one repair-queue element as (entry ID, graph id).
type repairPair struct{ entry, graph int }

// buildRelatedCache fills a cache the way the runtime does: every
// admission carries its true hit classification against the live
// same-kind entries (brute-force containment ground truth), so the
// relation graph is complete and the repeated-query fast path is live.
func buildRelatedCache(t *testing.T, cfg Config, n int, seed int64) *Cache {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	c := New(cfg)
	oracle := subiso.Brute{}
	for i := 0; i < n; i++ {
		e := randomQueryEntry(rng)
		e.R = float64(rng.Intn(50))
		e.Hits = int64(rng.Intn(5))
		e.LastUsed = c.Tick()
		var containing, contained []*Entry
		c.ForEach(func(o *Entry) bool {
			if o.Kind != e.Kind {
				return true
			}
			if oracle.Contains(o.Query, e.Query) {
				containing = append(containing, o)
			}
			if oracle.Contains(e.Query, o.Query) {
				contained = append(contained, o)
			}
			return true
		})
		c.AddWithRelations(e, containing, contained)
	}
	return c
}

// TestCheckIndexCatchesSweepOrder: CheckIndex rejects a cache whose
// stores are out of ascending ID order, the order Validate relies on.
func TestCheckIndexCatchesSweepOrder(t *testing.T) {
	c := buildRelatedCache(t, Config{Capacity: 10, WindowSize: 4}, 6, 9)
	requireIndex(t, c)
	c.entries[0], c.entries[1] = c.entries[1], c.entries[0]
	if err := c.CheckIndex(); err == nil {
		t.Fatal("CheckIndex accepted entries out of ID order")
	}
}

// validateAgainstReference runs c.Validate(ctrs, seq) and checks it
// against the per-entry Algorithm 2 reference: every live entry's Valid
// bitset must equal a clone refreshed with Refresh (RefreshStrict under
// StrictInvalidation), every Seq must be seq, and the pairs appended to
// the repair queue must be exactly the cleared bits in reference order —
// touched graph ids ascending, entry IDs ascending within an id — cut at
// the queue bound, with the overflow counted as dropped. It returns the
// cleared pairs.
func validateAgainstReference(t testing.TB, c *Cache, ctrs *dataset.Counters, seq uint64) []repairPair {
	t.Helper()
	var entries, refs []*Entry
	c.ForEach(func(e *Entry) bool {
		entries = append(entries, e)
		return true
	})
	sort.Slice(entries, func(a, b int) bool { return entries[a].ID < entries[b].ID })
	for _, e := range entries {
		ref := &Entry{ID: e.ID, Kind: e.Kind, Answer: e.Answer.Clone(), Valid: e.Valid.Clone()}
		if c.cfg.StrictInvalidation {
			ref.RefreshStrict(ctrs, seq)
		} else {
			ref.Refresh(ctrs, seq)
		}
		refs = append(refs, ref)
	}
	touched := ctrs.TouchedIDs()
	sort.Ints(touched)
	var cleared []repairPair
	for _, id := range touched {
		for i, e := range entries {
			if e.Valid.Get(id) && !refs[i].Valid.Get(id) {
				cleared = append(cleared, repairPair{e.ID, id})
			}
		}
	}
	queuedBefore := len(c.repairQ)
	droppedBefore := c.repairDropped

	c.Validate(ctrs, seq)

	for i, e := range entries {
		if !e.Valid.Equal(refs[i].Valid) {
			t.Fatalf("strict=%v entry #%d: Validate got %v, reference %v",
				c.cfg.StrictInvalidation, e.ID, e.Valid.Indices(), refs[i].Valid.Indices())
		}
		if e.Seq != seq {
			t.Fatalf("entry #%d: Seq %d, want %d", e.ID, e.Seq, seq)
		}
	}
	want := cleared
	if c.cfg.RepairQueue <= 0 {
		want = nil
	} else if room := c.cfg.RepairQueue - queuedBefore; len(want) > room {
		want = want[:room]
	}
	var got []repairPair
	for _, task := range c.repairQ[queuedBefore:] {
		got = append(got, repairPair{task.Entry.ID, task.GraphID})
	}
	if !slices.Equal(got, want) {
		t.Fatalf("repair queue got %v, want %v", got, want)
	}
	dropped := c.repairDropped
	if c.cfg.RepairQueue > 0 && int(dropped-droppedBefore) != len(cleared)-len(want) {
		t.Fatalf("dropped %d pairs, want %d", dropped-droppedBefore, len(cleared)-len(want))
	}
	return cleared
}

// randomLog returns a log of n records over graph ids [0, maxID) with
// uniformly drawn op types, numbered after c's applied sequence.
func randomLog(rng *rand.Rand, c *Cache, n, maxID int) ([]dataset.Record, uint64) {
	seq := c.AppliedSeq()
	recs := make([]dataset.Record, n)
	for i := range recs {
		seq++
		recs[i] = dataset.Record{Seq: seq, Op: dataset.OpType(rng.Intn(4)), GraphID: rng.Intn(maxID)}
	}
	return recs, seq
}

// TestValidateMatchesRefreshReference is the differential check of the
// sweeping Validator: on admitted and windowed entries with some bits
// already dead, its effect on every entry must be bit-identical to the
// reference per-entry Refresh/RefreshStrict sweep, and the repair queue
// must list the cleared pairs by graph id, then entry ID.
func TestValidateMatchesRefreshReference(t *testing.T) {
	for _, strict := range []bool{false, true} {
		rng := rand.New(rand.NewSource(11))
		c := New(Config{Capacity: 10, WindowSize: 4, StrictInvalidation: strict, RepairQueue: 1 << 10})
		const maxID = 10
		for i := 0; i < 14; i++ {
			c.Add(randomEntry(rng, maxID))
		}
		if c.WindowLen() == 0 || c.Size() == 0 {
			t.Fatalf("want entries in both stores, have %d admitted, %d windowed", c.Size(), c.WindowLen())
		}
		windowed := map[int]bool{}
		for _, e := range c.window {
			windowed[e.ID] = true
		}
		dead, windowCleared := 0, 0
		for round := 0; round < 3; round++ {
			c.ForEach(func(e *Entry) bool {
				dead += maxID - e.Valid.Count()
				return true
			})
			recs, seq := randomLog(rng, c, 8, maxID)
			for _, p := range validateAgainstReference(t, c, dataset.Analyze(recs), seq) {
				if windowed[p.entry] {
					windowCleared++
				}
			}
			requireIndex(t, c)
		}
		if dead == 0 || windowCleared == 0 {
			t.Fatalf("strict=%v: scenario too weak: %d dead bits, %d window bits cleared", strict, dead, windowCleared)
		}
	}
}

// BenchmarkValidate times one CON validation of a 4-op UA/UR batch over
// a full cache at the paper's sizes (100 admitted + 19 windowed entries,
// 600 live graphs), plus the repair restores that return the cleared
// bits, so every iteration sees the same steady, nearly fully valid
// cache a serving shard does.
func BenchmarkValidate(b *testing.B) {
	const live = 600
	rng := rand.New(rand.NewSource(9))
	c := New(Config{RepairQueue: 1 << 12})
	valid := bitset.New(live)
	for id := 0; id < live; id++ {
		valid.Set(id)
	}
	for c.Size()+c.WindowLen() < 119 {
		answer := bitset.New(live)
		for id := 0; id < live; id++ {
			answer.SetTo(id, rng.Intn(3) == 0)
		}
		c.Add(NewEntry(graph.Path(1, 2), Kind(rng.Intn(2)), answer, valid, 0, 1))
	}
	recs := make([]dataset.Record, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seq := c.AppliedSeq()
		for j := range recs {
			seq++
			op := dataset.OpUpdateAddEdge
			if rng.Intn(2) == 0 {
				op = dataset.OpUpdateRemoveEdge
			}
			recs[j] = dataset.Record{Seq: seq, Op: op, GraphID: rng.Intn(live)}
		}
		c.Validate(dataset.Analyze(recs), seq)
		for _, task := range c.DrainRepairs(1 << 12) {
			c.RestoreBit(task.Entry, task.GraphID, task.Entry.Answer.Get(task.GraphID))
		}
	}
}

// TestWindowFlushAtExactCapacity flushes a window that lands the cache
// exactly at capacity: nothing may be evicted.
func TestWindowFlushAtExactCapacity(t *testing.T) {
	c := New(Config{Capacity: 4, WindowSize: 2, Policy: PolicyPIN})
	for i := 0; i < 4; i++ {
		c.Add(testEntry(KindSub, nil, []int{0}, 0))
	}
	if c.Size() != 4 || c.WindowLen() != 0 {
		t.Fatalf("size=%d window=%d, want 4/0", c.Size(), c.WindowLen())
	}
	_, evicted, _, _ := c.Counters()
	if evicted != 0 {
		t.Fatalf("evicted %d entries at exact capacity", evicted)
	}
	requireIndex(t, c)
	// One more flush pushes past capacity and must evict exactly the
	// overflow.
	c.Add(testEntry(KindSub, nil, []int{0}, 0))
	c.Add(testEntry(KindSub, nil, []int{0}, 0))
	if c.Size() != 4 {
		t.Fatalf("size %d after overflow flush, want 4", c.Size())
	}
	_, evicted, _, _ = c.Counters()
	if evicted != 2 {
		t.Fatalf("evicted %d, want 2", evicted)
	}
	requireIndex(t, c)
}

// TestEvictionTiesAllEqual: with every score equal the tiebreak must
// evict the oldest IDs, deterministically.
func TestEvictionTiesAllEqual(t *testing.T) {
	c := New(Config{Capacity: 2, WindowSize: 5, Policy: PolicyLFU})
	for i := 0; i < 5; i++ {
		c.Add(testEntry(KindSub, nil, nil, 0)) // Hits all zero → all tied
	}
	var kept []int
	c.ForEach(func(e *Entry) bool {
		kept = append(kept, e.ID)
		return true
	})
	if len(kept) != 2 || kept[0] != 3 || kept[1] != 4 {
		t.Fatalf("kept %v, want [3 4] (oldest evicted on ties)", kept)
	}
	requireIndex(t, c)
}

// TestRValuesEmptyCache: the R snapshot of an empty cache is empty, not
// nil-dereferencing or fabricated.
func TestRValuesEmptyCache(t *testing.T) {
	c := New(Config{})
	if vals := c.RValues(); len(vals) != 0 {
		t.Fatalf("RValues on empty cache = %v", vals)
	}
	if ratio := c.ValidityRatio(bitset.FromIndices(0, 1)); ratio != 1 {
		t.Fatalf("empty-cache validity ratio %v, want vacuous 1", ratio)
	}
}

// TestRepairQueueBoundAndDrain checks the queue bound (drops counted,
// validator never blocked), FIFO drain order, and dead-entry skipping.
func TestRepairQueueBoundAndDrain(t *testing.T) {
	c := New(Config{Capacity: 10, WindowSize: 2, RepairQueue: 3})
	e1 := testEntry(KindSub, []int{0, 1, 2}, []int{0, 1, 2, 3}, 0)
	e2 := testEntry(KindSub, []int{0, 1, 2}, []int{0, 1, 2, 3}, 0)
	c.Add(e1)
	c.Add(e2)
	// DELs invalidate every bit: 8 clears chase a queue of 3.
	recs := []dataset.Record{
		{Seq: 1, Op: dataset.OpDelete, GraphID: 0},
		{Seq: 2, Op: dataset.OpDelete, GraphID: 1},
		{Seq: 3, Op: dataset.OpDelete, GraphID: 2},
		{Seq: 4, Op: dataset.OpDelete, GraphID: 3},
	}
	c.Validate(dataset.Analyze(recs), 4)
	requireIndex(t, c)
	if c.PendingRepairs() != 3 {
		t.Fatalf("pending %d, want 3 (bounded)", c.PendingRepairs())
	}
	dropped := c.repairDropped
	if dropped != 5 {
		t.Fatalf("dropped %d, want 5", dropped)
	}
	tasks := c.DrainRepairs(2)
	if len(tasks) != 2 || c.PendingRepairs() != 1 {
		t.Fatalf("drained %d pending %d, want 2/1", len(tasks), c.PendingRepairs())
	}
	// FIFO: the first cleared pairs come out first; the validator clears
	// in ascending entry-ID order per graph.
	if tasks[0].Entry.ID > tasks[1].Entry.ID ||
		(tasks[0].Entry.ID == tasks[1].Entry.ID && tasks[0].GraphID >= tasks[1].GraphID) {
		t.Fatalf("drain not FIFO: %v then %v", tasks[0], tasks[1])
	}

	// Restore works and keeps the invariants; restoring on a dead entry
	// is refused.
	if !c.RestoreBit(tasks[0].Entry, tasks[0].GraphID, true) {
		t.Fatal("RestoreBit refused a live entry")
	}
	requireIndex(t, c)
	if !tasks[0].Entry.Valid.Get(tasks[0].GraphID) || !tasks[0].Entry.Answer.Get(tasks[0].GraphID) {
		t.Fatal("RestoreBit did not set the bits")
	}
	restored := c.repairedBits
	if restored != 1 {
		t.Fatalf("restored counter %d, want 1", restored)
	}

	c.Purge()
	if c.PendingRepairs() != 0 {
		t.Fatal("purge must clear the repair queue")
	}
	if c.RestoreBit(e1, 0, true) {
		t.Fatal("RestoreBit resurrected a purged entry")
	}
	requireIndex(t, c)
}

// TestRefreshEntryRewritesBitsets: the iso-hit refresh path overwrites
// the entry's Answer and Valid bitsets in place (copies, not aliases of
// the caller's sets), and the next validation sweeps the rewritten bits.
func TestRefreshEntryRewritesBitsets(t *testing.T) {
	c := New(Config{Capacity: 4, WindowSize: 2, RepairQueue: 8})
	e := testEntry(KindSub, []int{0}, []int{0, 1}, 0)
	c.Add(e)
	answer, valid := bitset.FromIndices(2), bitset.FromIndices(2, 3, 4)
	c.RefreshEntry(e, answer, valid)
	requireIndex(t, c)
	if got := e.Valid.String(); got != "{2, 3, 4}" {
		t.Fatalf("Valid after refresh = %s", got)
	}
	if got := e.Answer.String(); got != "{2}" {
		t.Fatalf("Answer after refresh = %s", got)
	}
	valid.Clear(3)
	answer.Set(4)
	if !e.Valid.Get(3) || e.Answer.Get(4) {
		t.Fatal("RefreshEntry aliased the caller's bitsets")
	}
	// A DEL of graph 0 (no longer valid) clears nothing; one of graph 3
	// clears the rewritten bit.
	cleared := validateAgainstReference(t, c, dataset.Analyze([]dataset.Record{
		{Seq: 1, Op: dataset.OpDelete, GraphID: 0},
		{Seq: 2, Op: dataset.OpDelete, GraphID: 3},
	}), 2)
	if want := []repairPair{{e.ID, 3}}; !slices.Equal(cleared, want) {
		t.Fatalf("validation cleared %v, want %v", cleared, want)
	}
}
