package cache

import (
	"math/rand"
	"testing"

	"gcplus/internal/bitset"
	"gcplus/internal/feature"
	"gcplus/internal/ftv"
	"gcplus/internal/graph"
	"gcplus/internal/subiso"
)

// requireQueryIndex is the in-package form of the query-index half of
// testutil.RequireCacheIndex.
func requireQueryIndex(t testing.TB, c *Cache) {
	t.Helper()
	if err := c.CheckIndex(); err != nil {
		t.Fatal(err)
	}
	if err := c.CheckQueryIndex(); err != nil {
		t.Fatal(err)
	}
}

// randomQueryGraph builds a small random connected-ish labelled graph.
func randomQueryGraph(rng *rand.Rand) *graph.Graph {
	n := 1 + rng.Intn(6)
	b := graph.NewBuilder()
	present := make(map[[2]int]bool)
	for i := 0; i < n; i++ {
		b.AddVertex(graph.Label(rng.Intn(5)))
	}
	addEdge := func(u, v int) {
		if u > v {
			u, v = v, u
		}
		if u == v || present[[2]int{u, v}] {
			return
		}
		present[[2]int{u, v}] = true
		b.AddEdge(u, v)
	}
	for i := 1; i < n; i++ {
		addEdge(i, rng.Intn(i))
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < 0.2 {
				addEdge(u, v)
			}
		}
	}
	return b.MustBuild()
}

func randomQueryEntry(rng *rand.Rand) *Entry {
	kind := KindSub
	if rng.Intn(2) == 1 {
		kind = KindSuper
	}
	return NewEntry(randomQueryGraph(rng), kind,
		bitset.FromIndices(rng.Intn(8)), bitset.FromIndices(0, 1, 2, 3), 0, 1)
}

// TestQueryIndexCandidateSoundness checks the index's core guarantee on
// randomized contents: ForEachHitCandidate visits candidates in exactly
// ForEach's order, never under-flags an entry that could classify as a
// hit, and only drops an entry (or a direction) when the decisive
// containment test provably fails — the drop is verified against
// brute-force sub-iso ground truth. (The mayContain direction filters
// on path signatures, which are finer than the fingerprint, so dropping
// a fingerprint-passing entry is legal exactly when containment fails.)
func TestQueryIndexCandidateSoundness(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	oracle := subiso.Brute{}
	c := New(Config{Capacity: 40, WindowSize: 7})
	for i := 0; i < 120; i++ {
		c.Add(randomQueryEntry(rng))
		if i%10 == 0 {
			requireQueryIndex(t, c)
		}
	}
	requireQueryIndex(t, c)
	for trial := 0; trial < 60; trial++ {
		q := randomQueryGraph(rng)
		qf := feature.Of(q)
		for _, kind := range []Kind{KindSub, KindSuper} {
			got := make(map[*Entry][2]bool)
			var order []*Entry
			c.ForEachHitCandidate(kind, q, ftv.PathSignatures(q, QueryPathLen), func(e *Entry, mayContain, mayBeContained bool) bool {
				got[e] = [2]bool{mayContain, mayBeContained}
				order = append(order, e)
				return true
			})
			// Order must be the ForEach order restricted to candidates.
			i := 0
			c.ForEach(func(e *Entry) bool {
				if i < len(order) && order[i] == e {
					i++
				}
				return true
			})
			if i != len(order) {
				t.Fatalf("trial %d kind %v: candidate order diverges from ForEach", trial, kind)
			}
			c.ForEach(func(e *Entry) bool {
				if e.Kind != kind {
					return true
				}
				flags := got[e]
				if qf.SubsumedBy(e.Fp) && !flags[0] {
					// Dropping the containing direction is sound only
					// when q provably does not embed into the entry.
					if oracle.Contains(q, e.Query) {
						t.Fatalf("trial %d kind %v: entry #%d contains q but was dropped", trial, kind, e.ID)
					}
				}
				if e.Fp.SubsumedBy(qf) && !flags[1] {
					// No finer filter exists in this direction: a
					// fingerprint-passing entry must always be flagged.
					t.Fatalf("trial %d kind %v: entry #%d lost its mayBeContained flag", trial, kind, e.ID)
				}
				return true
			})
		}
	}
}

// TestQueryIndexIsoCandidates checks that the iso probe never misses an
// entry with a fingerprint identical to the query's.
func TestQueryIndexIsoCandidates(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	c := New(Config{Capacity: 30, WindowSize: 5})
	for i := 0; i < 80; i++ {
		c.Add(randomQueryEntry(rng))
	}
	requireQueryIndex(t, c)
	for trial := 0; trial < 60; trial++ {
		q := randomQueryGraph(rng)
		qf := feature.Of(q)
		for _, kind := range []Kind{KindSub, KindSuper} {
			want := make(map[*Entry]bool)
			c.ForEach(func(e *Entry) bool {
				if e.Kind == kind && qf.SubsumedBy(e.Fp) && e.Fp.SubsumedBy(qf) {
					want[e] = true
				}
				return true
			})
			got := make(map[*Entry]bool)
			c.ForEachIsoCandidate(kind, q, ftv.PathSignatures(q, QueryPathLen), func(e *Entry) bool {
				got[e] = true
				return true
			})
			for e := range want {
				if !got[e] {
					t.Fatalf("trial %d: iso probe missed fingerprint-equal entry #%d", trial, e.ID)
				}
			}
		}
	}
}

// TestQueryIndexRelations exercises the memoized relation graph through
// admissions with relations, reciprocal updates, eviction cleanup and
// the incompleteness gating.
func TestQueryIndexRelations(t *testing.T) {
	c := New(Config{Capacity: 3, WindowSize: 1}) // window 1: admit straight through
	mk := func(g *graph.Graph) *Entry {
		return NewEntry(g, KindSub, bitset.New(4), bitset.FromIndices(0, 1, 2, 3), 0, 1)
	}
	big := mk(graph.Path(1, 2, 3))
	c.AddWithRelations(big, []*Entry{}, []*Entry{})
	small := mk(graph.Path(1, 2))
	// path(1,2) ⊆ path(1,2,3): big contains small.
	c.AddWithRelations(small, []*Entry{big}, []*Entry{})
	requireQueryIndex(t, c)

	// small's relations: big contains it; big's reciprocal: contains small.
	n, ok := c.ForEachRelated(small, func(e *Entry, contains, containedIn bool) bool {
		switch e {
		case small:
			if !contains || !containedIn {
				t.Fatal("base entry must carry both flags")
			}
		case big:
			if !contains || containedIn {
				t.Fatalf("big: contains=%v containedIn=%v", contains, containedIn)
			}
		default:
			t.Fatalf("unexpected related entry %v", e)
		}
		return true
	})
	if !ok || n != 2 {
		t.Fatalf("ForEachRelated(small) = %d, %v", n, ok)
	}
	n, ok = c.ForEachRelated(big, func(e *Entry, contains, containedIn bool) bool {
		if e == small && (contains || !containedIn) {
			t.Fatalf("small from big: contains=%v containedIn=%v", contains, containedIn)
		}
		return true
	})
	if !ok || n != 2 {
		t.Fatalf("ForEachRelated(big) = %d, %v", n, ok)
	}

	// Eviction cleans both directions (capacity 3, PIN ties → oldest out).
	third := mk(graph.Path(9))
	c.AddWithRelations(third, []*Entry{}, []*Entry{})
	fourth := mk(graph.Path(8))
	c.AddWithRelations(fourth, []*Entry{}, []*Entry{})
	requireQueryIndex(t, c)

	// A relation-less Add poisons the fast path.
	if !c.qidx.relIncomplete {
		c.Add(mk(graph.Path(7)))
		if !c.qidx.relIncomplete {
			t.Fatal("raw Add must mark relations incomplete")
		}
	}
	if _, ok := c.ForEachRelated(fourth, func(*Entry, bool, bool) bool { return true }); ok {
		t.Fatal("fast path must be gated after a relation-less admission")
	}
	requireQueryIndex(t, c)
	c.Purge()
	requireQueryIndex(t, c)
}

// TestConfigValidate pins loud failure on mistyped policies and models.
func TestConfigValidate(t *testing.T) {
	if err := (Config{}).Validate(); err != nil {
		t.Fatalf("zero config must validate: %v", err)
	}
	if err := (Config{Policy: "PIM"}).Validate(); err == nil {
		t.Fatal("mistyped policy accepted")
	}
	if err := (Config{Model: Model(9)}).Validate(); err == nil {
		t.Fatal("unknown model accepted")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("New must panic on an invalid config")
		}
	}()
	New(Config{Policy: "PIM"})
}
