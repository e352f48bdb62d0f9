package cache

import (
	"math/rand"
	"testing"

	"gcplus/internal/bitset"
	"gcplus/internal/dataset"
	"gcplus/internal/subiso"
)

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

// snapshotStats compares the observable state of two caches.
func requireSameCacheState(t *testing.T, a, b *Cache) {
	t.Helper()
	if sa, sb := a.Stats(), b.Stats(); sa != sb {
		t.Fatalf("stats differ:\n a: %+v\n b: %+v", sa, sb)
	}
	var ea, eb []*Entry
	a.ForEach(func(e *Entry) bool { ea = append(ea, e); return true })
	b.ForEach(func(e *Entry) bool { eb = append(eb, e); return true })
	if len(ea) != len(eb) {
		t.Fatalf("entry count %d vs %d", len(ea), len(eb))
	}
	for i := range ea {
		x, y := ea[i], eb[i]
		if x.ID != y.ID || x.Kind != y.Kind || x.Seq != y.Seq ||
			x.R != y.R || x.CostEst != y.CostEst || x.Hits != y.Hits || x.LastUsed != y.LastUsed ||
			!x.Answer.Equal(y.Answer) || !x.Valid.Equal(y.Valid) ||
			!x.Fp.SubsumedBy(y.Fp) || !y.Fp.SubsumedBy(x.Fp) {
			t.Fatalf("entry %d differs:\n a: %v\n b: %v", i, x, y)
		}
	}
}

func TestCacheExportRestoreRoundTrip(t *testing.T) {
	cfg := Config{Capacity: 30, WindowSize: 7, RepairQueue: 64}
	c := buildRelatedCache(t, cfg, 80, 11)
	requireIndex(t, c)

	// Invalidate some bits so the export carries a repair queue and a
	// non-trivial validity pattern.
	ctrs := dataset.Analyze([]dataset.Record{
		{Seq: 1, Op: dataset.OpDelete, GraphID: 1},
		{Seq: 2, Op: dataset.OpUpdateAddEdge, GraphID: 2, U: 0, V: 1},
	})
	c.Validate(ctrs, 2)
	c.NoteValidation()
	requireIndex(t, c)
	if c.PendingRepairs() == 0 {
		t.Fatal("test needs a non-empty repair queue")
	}

	snap := c.Export()
	r := New(cfg)
	if err := r.Restore(snap); err != nil {
		t.Fatal(err)
	}
	requireIndex(t, r)
	requireSameCacheState(t, c, r)

	// The memoized relation graph must replay identically: for every
	// entry, ForEachRelated visits the same ids with the same flags.
	var entries []*Entry
	c.ForEach(func(e *Entry) bool { entries = append(entries, e); return true })
	var restored []*Entry
	r.ForEach(func(e *Entry) bool { restored = append(restored, e); return true })
	for i := range entries {
		type rel struct {
			id                    int
			contains, containedIn bool
		}
		var ra, rb []rel
		na, oka := c.ForEachRelated(entries[i], func(e *Entry, contains, containedIn bool) bool {
			ra = append(ra, rel{e.ID, contains, containedIn})
			return true
		})
		nb, okb := r.ForEachRelated(restored[i], func(e *Entry, contains, containedIn bool) bool {
			rb = append(rb, rel{e.ID, contains, containedIn})
			return true
		})
		if na != nb || oka != okb || len(ra) != len(rb) {
			t.Fatalf("entry %d: relations visited %d/%v vs %d/%v", i, na, oka, nb, okb)
		}
		for j := range ra {
			if ra[j] != rb[j] {
				t.Fatalf("entry %d relation %d: %+v vs %+v", i, j, ra[j], rb[j])
			}
		}
	}

	// The restored repair queue drains the same pairs.
	da, db := c.DrainRepairs(1000), r.DrainRepairs(1000)
	if len(da) != len(db) {
		t.Fatalf("repair queues %d vs %d", len(da), len(db))
	}
	for i := range da {
		if da[i].GraphID != db[i].GraphID || da[i].Entry.ID != db[i].Entry.ID {
			t.Fatalf("repair pair %d: (%d,%d) vs (%d,%d)",
				i, da[i].Entry.ID, da[i].GraphID, db[i].Entry.ID, db[i].GraphID)
		}
	}

	// Restored caches keep evolving correctly: admissions, eviction and
	// purge hold the index invariants.
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 40; i++ {
		r.Add(randomQueryEntry(rng))
	}
	requireIndex(t, r)
	r.Purge()
	requireIndex(t, r)
}

func TestCacheRestoreRejects(t *testing.T) {
	c := buildRelatedCache(t, Config{Capacity: 10, WindowSize: 4}, 6, 9)
	snap := c.Export()

	nonEmpty := New(Config{})
	nonEmpty.Add(NewEntry(randomQueryGraph(rand.New(rand.NewSource(1))), KindSub,
		bitset.New(1), bitset.FromIndices(0), 0, 1))
	if err := nonEmpty.Restore(snap); err == nil {
		t.Fatal("restore into a non-empty cache accepted")
	}

	bad := *snap
	bad.WindowStart = len(snap.Entries) + 1
	if err := New(Config{}).Restore(&bad); err == nil {
		t.Fatal("out-of-range window start accepted")
	}

	// An out-of-range relation index must error, not panic.
	bad2 := c.Export()
	bad2.Entries[len(bad2.Entries)-1].Sup = []int{999}
	if err := New(Config{}).Restore(bad2); err == nil {
		t.Fatal("out-of-range relation index accepted")
	}

	// Entry IDs must ascend below NextID: Validate sweeps in that order.
	swapped := c.Export()
	swapped.Entries[0].ID, swapped.Entries[1].ID = swapped.Entries[1].ID, swapped.Entries[0].ID
	if err := New(Config{}).Restore(swapped); err == nil {
		t.Fatal("descending entry IDs accepted")
	}
	stale := c.Export()
	stale.NextID = stale.Entries[len(stale.Entries)-1].ID
	if err := New(Config{}).Restore(stale); err == nil {
		t.Fatal("NextID at or below a restored entry ID accepted")
	}
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

// TestCacheRestoreWithoutRelations pins the bare-Add degradation: a
// cache whose entries were admitted without relations restores with the
// fast path disabled, exactly like the original.
func TestCacheRestoreWithoutRelations(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	c := New(Config{Capacity: 10, WindowSize: 4})
	for i := 0; i < 12; i++ {
		c.Add(randomQueryEntry(rng))
	}
	snap := c.Export()
	if !snap.RelIncomplete {
		t.Fatal("bare admissions should mark relations incomplete")
	}
	r := New(Config{Capacity: 10, WindowSize: 4})
	if err := r.Restore(snap); err != nil {
		t.Fatal(err)
	}
	requireIndex(t, r)
	var base *Entry
	r.ForEach(func(e *Entry) bool { base = e; return false })
	if _, ok := r.ForEachRelated(base, func(*Entry, bool, bool) bool { return true }); ok {
		t.Fatal("relation fast path usable after relation-less restore")
	}
}
