package cache

import (
	"math/rand"
	"testing"

	"gcplus/internal/bitset"
	"gcplus/internal/graph"
)

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
	requireIndex(t, c)

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
	requireIndex(t, c)

	// A relation-less Add poisons the fast path.
	if !c.rel.relIncomplete {
		c.Add(mk(graph.Path(7)))
		if !c.rel.relIncomplete {
			t.Fatal("raw Add must mark relations incomplete")
		}
	}
	if _, ok := c.ForEachRelated(fourth, func(*Entry, bool, bool) bool { return true }); ok {
		t.Fatal("fast path must be gated after a relation-less admission")
	}
	requireIndex(t, c)
	c.Purge()
	requireIndex(t, c)
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
