// Package testutil provides shared helpers for the test suites: random
// graph generation, connected-subgraph extraction, brute-force ground
// truth for whole-dataset queries, and a goroutine-leak check. It is
// imported only from _test files and benchmark seeding code.
package testutil

import (
	"math/rand"
	"runtime"
	"testing"
	"time"

	"gcplus/internal/bitset"
	"gcplus/internal/dataset"
	"gcplus/internal/graph"
	"gcplus/internal/subiso"
)

// CacheIndexes is the slice of *cache.Cache these helpers exercise: its
// bookkeeping invariants. Declaring the interface here (instead of
// importing the cache package) keeps testutil importable from the test
// suites of cache's own dependencies.
type CacheIndexes interface {
	// CheckIndex verifies the slot table, dead flags, sweep order,
	// repair queue and relation graph.
	CheckIndex() error
}

// RequireCacheIndex fails the test when the cache's bookkeeping
// violates an invariant (cache.CheckIndex): every live entry maps back
// from its slot and is not marked dead, entries run in ascending ID
// order as Validate sweeps them, the repair queue holds no nil entry,
// and the query-to-query relation graph is symmetric over exactly the
// live entries. Test suites call it after every mutation sequence —
// admit, evict, purge, validate, repair — so bookkeeping bugs surface
// at the mutation that introduced them.
func RequireCacheIndex(t testing.TB, c CacheIndexes) {
	t.Helper()
	if c == nil {
		return
	}
	if err := c.CheckIndex(); err != nil {
		t.Fatal(err)
	}
}

// RandomGraph generates a random labelled graph with 1..maxN vertices,
// labels drawn from [0, labels) and independent edge probability p.
func RandomGraph(rng *rand.Rand, maxN, labels int, p float64) *graph.Graph {
	n := 1 + rng.Intn(maxN)
	b := graph.NewBuilder()
	for i := 0; i < n; i++ {
		b.AddVertex(graph.Label(rng.Intn(labels)))
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				b.AddEdge(u, v)
			}
		}
	}
	return b.MustBuild()
}

// RandomConnectedGraph generates a connected graph with exactly n
// vertices: a random spanning tree plus, per vertex pair, an extra edge
// with probability p.
func RandomConnectedGraph(rng *rand.Rand, n, labels int, p float64) *graph.Graph {
	b := graph.NewBuilder()
	present := make(map[[2]int]bool)
	for i := 0; i < n; i++ {
		b.AddVertex(graph.Label(rng.Intn(labels)))
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
			if rng.Float64() < p {
				addEdge(u, v)
			}
		}
	}
	return b.MustBuild()
}

// BFSExtract extracts a connected subgraph with up to maxEdges edges from
// g, starting at the given vertex — the paper's Type A query generation:
// a BFS where, for each newly visited node, all its edges back to already
// visited nodes are added until the desired query size is reached.
func BFSExtract(rng *rand.Rand, g *graph.Graph, start, maxEdges int) *graph.Graph {
	if g.NumVertices() == 0 || start < 0 || start >= g.NumVertices() {
		return graph.NewBuilder().MustBuild()
	}
	b := graph.NewBuilder()
	idx := map[int]int{start: b.AddVertex(g.Label(start))}
	added := make(map[[2]int]bool)
	addEdge := func(u, v int) {
		if u > v {
			u, v = v, u
		}
		if !added[[2]int{u, v}] {
			added[[2]int{u, v}] = true
			b.AddEdge(u, v)
		}
	}
	queue := []int{start}
	edges := 0
	for len(queue) > 0 && edges < maxEdges {
		v := queue[0]
		queue = queue[1:]
		ns := append([]int32(nil), g.Neighbors(v)...)
		rng.Shuffle(len(ns), func(i, j int) { ns[i], ns[j] = ns[j], ns[i] })
		for _, w := range ns {
			if edges >= maxEdges {
				break
			}
			wi, seen := idx[int(w)]
			if !seen {
				wi = b.AddVertex(g.Label(int(w)))
				idx[int(w)] = wi
				queue = append(queue, int(w))
			}
			before := len(added)
			addEdge(idx[v], wi)
			if len(added) > before {
				edges++
			}
		}
	}
	return b.MustBuild()
}

// GroundTruthSub computes {id : q ⊆ G_id} over the live dataset with the
// brute-force oracle.
func GroundTruthSub(ds *dataset.Dataset, q *graph.Graph) *bitset.Set {
	return groundTruth(ds, q, true)
}

// GroundTruthSuper computes {id : G_id ⊆ q}.
func GroundTruthSuper(ds *dataset.Dataset, q *graph.Graph) *bitset.Set {
	return groundTruth(ds, q, false)
}

func groundTruth(ds *dataset.Dataset, q *graph.Graph, sub bool) *bitset.Set {
	oracle := subiso.Brute{}
	out := bitset.New(0)
	for _, id := range ds.LiveIDs() {
		g := ds.Graph(id)
		var ok bool
		if sub {
			ok = oracle.Contains(q, g)
		} else {
			ok = oracle.Contains(g, q)
		}
		if ok {
			out.Set(id)
		}
	}
	return out
}

// RandomChange applies one uniformly chosen ADD/DEL/UA/UR to the dataset,
// mirroring the paper's change-plan op construction: ADD re-inserts a
// clone of a pool graph, DEL/UA/UR pick a live graph uniformly; UA adds a
// uniformly chosen absent edge, UR removes a uniformly chosen present
// edge. Inapplicable draws (e.g. UR on an edgeless graph) are retried a
// bounded number of times; false is returned if nothing was applied.
func RandomChange(rng *rand.Rand, ds *dataset.Dataset, pool []*graph.Graph) bool {
	for tries := 0; tries < 16; tries++ {
		ids := ds.LiveIDs()
		switch rng.Intn(4) {
		case 0: // ADD
			if len(pool) == 0 {
				continue
			}
			g := pool[rng.Intn(len(pool))].Clone()
			if _, err := ds.Add(g); err == nil {
				return true
			}
		case 1: // DEL
			if len(ids) <= 1 {
				continue
			}
			if ds.Delete(ids[rng.Intn(len(ids))]) == nil {
				return true
			}
		case 2: // UA
			if len(ids) == 0 {
				continue
			}
			id := ids[rng.Intn(len(ids))]
			g := ds.Graph(id)
			n := g.NumVertices()
			if n < 2 {
				continue
			}
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v || g.HasEdge(u, v) {
				continue
			}
			if ds.UpdateAddEdge(id, u, v) == nil {
				return true
			}
		case 3: // UR
			if len(ids) == 0 {
				continue
			}
			id := ids[rng.Intn(len(ids))]
			g := ds.Graph(id)
			if g.NumEdges() == 0 {
				continue
			}
			es := g.EdgeList()
			e := es[rng.Intn(len(es))]
			if ds.UpdateRemoveEdge(id, int(e.U), int(e.V)) == nil {
				return true
			}
		}
	}
	return false
}

// GoroutineBaseline records the current goroutine count and returns a
// check that fails t unless the count is back at or below it. An exiting
// goroutine stays counted until the scheduler retires it, so the check
// polls for a bounded time before failing with a dump of every stack.
// Call it at the top of a test that does not run in parallel with others,
// and run the check after the Stop/Close under test has returned.
func GoroutineBaseline(t testing.TB) (check func()) {
	t.Helper()
	base := runtime.NumGoroutine()
	return func() {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > base {
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<20)
				buf = buf[:runtime.Stack(buf, true)]
				t.Fatalf("goroutines leaked: %d running, baseline %d\n%s", runtime.NumGoroutine(), base, buf)
			}
			time.Sleep(time.Millisecond)
		}
	}
}
