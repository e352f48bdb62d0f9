package gcplus

import (
	"bytes"
	"strings"
	"testing"
)

func testGraphs() []*Graph {
	return []*Graph{
		PathGraph(1, 2, 3),
		CycleGraph(1, 2, 3),
		StarGraph(1, 2, 2, 3),
		PathGraph(2, 1, 2),
	}
}

func TestOpenDefaults(t *testing.T) {
	sys, err := Open(testGraphs(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sys.GraphCount() != 4 {
		t.Fatalf("GraphCount = %d", sys.GraphCount())
	}
	if !strings.Contains(sys.String(), "M=VF2+") {
		t.Errorf("String() = %q", sys)
	}
	pinned, err := Open(testGraphs(), Options{Method: "GQL"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(pinned.String(), "M=GQL") {
		t.Errorf("pinned String() = %q", pinned)
	}
}

func TestOpenBadMethod(t *testing.T) {
	if _, err := Open(testGraphs(), Options{Method: "nope"}); err == nil {
		t.Fatal("bad method accepted")
	}
}

func TestSubgraphQueryAndResult(t *testing.T) {
	sys, err := Open(testGraphs(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.SubgraphQuery(PathGraph(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	// edge 1-2 appears in graphs 0, 1, 2, 3
	if res.Len() != 4 {
		t.Fatalf("answer = %v", res.IDs())
	}
	if !res.Contains(0) || res.Contains(9) {
		t.Fatal("Contains wrong")
	}
	st := res.Stats()
	if st.CandidatesBefore != 4 {
		t.Fatalf("CandidatesBefore = %d", st.CandidatesBefore)
	}
}

func TestSupergraphQuery(t *testing.T) {
	sys, err := Open(testGraphs(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// a big clique contains the small path graphs
	res, err := sys.SupergraphQuery(CliqueGraph(1, 2, 3, 2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() == 0 {
		t.Fatal("expected some contained graphs")
	}
}

func TestDatasetEvolutionKeepsAnswersExact(t *testing.T) {
	sys, err := Open(testGraphs(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	q := PathGraph(1, 2)
	if _, err := sys.SubgraphQuery(q); err != nil {
		t.Fatal(err)
	}
	id, err := sys.AddGraph(PathGraph(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.SubgraphQuery(q.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Contains(id) {
		t.Fatal("new graph missing from answer after ADD")
	}
	if err := sys.DeleteGraph(id); err != nil {
		t.Fatal(err)
	}
	res, err = sys.SubgraphQuery(q.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if res.Contains(id) {
		t.Fatal("deleted graph still answered")
	}
	// UR then UA round trip on graph 0 (path 1-2-3)
	if err := sys.RemoveEdge(0, 0, 1); err != nil {
		t.Fatal(err)
	}
	res, err = sys.SubgraphQuery(q.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if res.Contains(0) {
		t.Fatal("graph 0 no longer contains 1-2 after UR")
	}
	if err := sys.AddEdge(0, 0, 1); err != nil {
		t.Fatal(err)
	}
	res, err = sys.SubgraphQuery(q.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Contains(0) {
		t.Fatal("graph 0 should contain 1-2 again after UA")
	}
}

func TestCacheEntriesIntrospection(t *testing.T) {
	sys, err := Open(testGraphs(), Options{CacheSize: 10, WindowSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	q := PathGraph(1, 2)
	q.SetName("q0")
	if _, err := sys.SubgraphQuery(q); err != nil {
		t.Fatal(err)
	}
	entries := sys.CacheEntries()
	if len(entries) != 1 || entries[0].Query != "q0" || entries[0].Kind != "sub" {
		t.Fatalf("entries = %+v", entries)
	}
	if len(entries[0].Answer) != 4 || len(entries[0].Valid) != 4 {
		t.Fatalf("entry snapshot wrong: %+v", entries[0])
	}
	// a deletion invalidates the bit on the next query
	if err := sys.DeleteGraph(3); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.SubgraphQuery(PathGraph(3, 1)); err != nil {
		t.Fatal(err)
	}
	entries = sys.CacheEntries()
	for _, e := range entries {
		if e.Query == "q0" {
			for _, v := range e.Valid {
				if v == 3 {
					t.Fatal("deleted graph still valid in CGvalid")
				}
			}
		}
	}
}

func TestDisableCache(t *testing.T) {
	sys, err := Open(testGraphs(), Options{DisableCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.SubgraphQuery(PathGraph(1, 2)); err != nil {
		t.Fatal(err)
	}
	if sys.CacheSize() != 0 || len(sys.CacheEntries()) != 0 {
		t.Fatal("cache should be disabled")
	}
	m := sys.Metrics()
	if m.Queries != 1 || m.SubIsoTests.Sum() != 4 {
		t.Fatalf("metrics wrong: %+v", m)
	}
}

func TestModelsAndPolicies(t *testing.T) {
	for _, model := range []Model{CON, EVI} {
		for _, pol := range []Policy{HD, PIN, PINC, LRU, LFU} {
			sys, err := Open(testGraphs(), Options{Model: model, Policy: pol})
			if err != nil {
				t.Fatalf("%v/%v: %v", model, pol, err)
			}
			if _, err := sys.SubgraphQuery(PathGraph(1, 2)); err != nil {
				t.Fatalf("%v/%v: %v", model, pol, err)
			}
		}
	}
}

func TestCodecRoundTripPublic(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteGraphs(&buf, testGraphs()); err != nil {
		t.Fatal(err)
	}
	gs, err := ParseGraphs(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(gs) != 4 {
		t.Fatalf("parsed %d graphs", len(gs))
	}
}

func TestGenerateAIDSLike(t *testing.T) {
	gs, err := GenerateAIDSLike(25, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(gs) != 25 {
		t.Fatalf("generated %d graphs", len(gs))
	}
	for _, g := range gs {
		if !g.Connected() {
			t.Fatal("generated graph disconnected")
		}
	}
	// determinism
	gs2, _ := GenerateAIDSLike(25, 7)
	if gs[3].NumEdges() != gs2[3].NumEdges() {
		t.Fatal("generation not deterministic")
	}
}

func TestMetricsAndReset(t *testing.T) {
	sys, err := Open(testGraphs(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	q := PathGraph(1, 2)
	for i := 0; i < 3; i++ {
		if _, err := sys.SubgraphQuery(q.Clone()); err != nil {
			t.Fatal(err)
		}
	}
	m := sys.Metrics()
	if m.Queries != 3 {
		t.Fatalf("Queries = %d", m.Queries)
	}
	if m.ExactHits < 1 {
		t.Fatal("repeated query produced no exact hits")
	}
	sys.ResetMetrics()
	if sys.Metrics().MeasuredQueries != 0 {
		t.Fatal("reset failed")
	}
}

func TestServerMatchesSystem(t *testing.T) {
	graphs, err := GenerateAIDSLike(50, 9)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := Open(graphs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(graphs, ServeOptions{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if srv.Shards() != 4 {
		t.Fatalf("Shards = %d", srv.Shards())
	}

	base := graphs[0]
	queries := []*Graph{
		PathGraph(base.Label(0), base.Label(1)),
		PathGraph(base.Label(0), base.Label(1), base.Label(2)),
		StarGraph(base.Label(1), base.Label(0), base.Label(2)),
	}
	check := func() {
		t.Helper()
		for qi, q := range queries {
			want, err := sys.SubgraphQuery(q)
			if err != nil {
				t.Fatal(err)
			}
			got, err := srv.SubgraphQuery(q)
			if err != nil {
				t.Fatal(err)
			}
			wantIDs := want.IDs()
			if len(got.IDs) != len(wantIDs) {
				t.Fatalf("query %d: server %v, system %v", qi, got.IDs, wantIDs)
			}
			for i := range wantIDs {
				if got.IDs[i] != wantIDs[i] {
					t.Fatalf("query %d: server %v, system %v", qi, got.IDs, wantIDs)
				}
			}
		}
	}
	check()

	// The same updates through both front-ends keep answers identical.
	added, err := srv.AddGraph(graphs[1].Clone())
	if err != nil {
		t.Fatal(err)
	}
	if added != 50 {
		t.Fatalf("AddGraph id = %d, want 50", added)
	}
	if _, err := sys.AddGraph(graphs[1].Clone()); err != nil {
		t.Fatal(err)
	}
	res, err := srv.Update([]UpdateOp{NewDeleteOp(3), NewRemoveEdgeOp(added, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Applied != 2 || res.Epoch != 2 {
		t.Fatalf("update result: %+v", res)
	}
	if err := sys.DeleteGraph(3); err != nil {
		t.Fatal(err)
	}
	if err := sys.RemoveEdge(added, 0, 1); err != nil {
		t.Fatal(err)
	}
	check()

	if srv.Epoch() != 2 {
		t.Fatalf("Epoch = %d", srv.Epoch())
	}
	st, err := srv.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.LiveGraphs != 50 || st.Shards != 4 {
		t.Fatalf("stats: %+v", st)
	}
	if srv.Handler() == nil {
		t.Fatal("nil handler")
	}
}

// TestServerLoopbackTransport builds the same sharded server over the
// loopback TCP transport and demands answers identical to the default
// in-process one — the facade-level contract that the transport seam
// never bends a result.
func TestServerLoopbackTransport(t *testing.T) {
	graphs, err := GenerateAIDSLike(40, 5)
	if err != nil {
		t.Fatal(err)
	}
	local, err := NewServer(graphs, ServeOptions{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()
	remote, err := NewServer(graphs, ServeOptions{Shards: 3, Transport: TransportLoopback})
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()

	base := graphs[0]
	queries := []*Graph{
		PathGraph(base.Label(0), base.Label(1)),
		StarGraph(base.Label(1), base.Label(0), base.Label(2)),
	}
	for qi, q := range queries {
		a, err := local.SubgraphQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		b, err := remote.SubgraphQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(a.IDs) != len(b.IDs) {
			t.Fatalf("query %d: local %v loopback %v", qi, a.IDs, b.IDs)
		}
		for i := range a.IDs {
			if a.IDs[i] != b.IDs[i] {
				t.Fatalf("query %d: local %v loopback %v", qi, a.IDs, b.IDs)
			}
		}
	}
	if _, err := NewServer(graphs, ServeOptions{Shards: 2, Transport: "carrier-pigeon"}); err == nil {
		t.Fatal("bogus transport accepted")
	}
}
