package dataset

import (
	"math/rand"
	"sync"
	"testing"

	"gcplus/internal/graph"
)

func threeGraphs() []*graph.Graph {
	return []*graph.Graph{
		graph.Path(1, 2),
		graph.Path(1, 2, 3),
		graph.Cycle(1, 2, 3),
	}
}

func TestNewAssignsDenseIDs(t *testing.T) {
	d := New(threeGraphs())
	if d.LiveCount() != 3 || d.MaxID() != 2 {
		t.Fatalf("LiveCount=%d MaxID=%d", d.LiveCount(), d.MaxID())
	}
	if d.Seq() != 0 {
		t.Fatal("initial load must not be logged")
	}
	for id := 0; id < 3; id++ {
		if d.Graph(id) == nil {
			t.Fatalf("graph %d missing", id)
		}
	}
	if d.Graph(3) != nil || d.Graph(-1) != nil {
		t.Fatal("out-of-range Graph should be nil")
	}
}

func TestEmptyDataset(t *testing.T) {
	d := New(nil)
	if d.MaxID() != -1 || d.LiveCount() != 0 {
		t.Fatal("empty dataset wrong")
	}
	id, err := d.Add(graph.Single(1))
	if err != nil || id != 0 {
		t.Fatalf("Add on empty: id=%d err=%v", id, err)
	}
}

func TestAddDeleteLifecycle(t *testing.T) {
	d := New(threeGraphs())
	id, err := d.Add(graph.Single(9))
	if err != nil {
		t.Fatal(err)
	}
	if id != 3 {
		t.Fatalf("new id = %d, want 3", id)
	}
	if err := d.Delete(0); err != nil {
		t.Fatal(err)
	}
	if d.Graph(0) != nil {
		t.Fatal("deleted graph still visible")
	}
	if err := d.Delete(0); err == nil {
		t.Fatal("double delete accepted")
	}
	if err := d.Delete(99); err == nil {
		t.Fatal("delete out of range accepted")
	}
	// ids never reused
	id2, _ := d.Add(graph.Single(8))
	if id2 != 4 {
		t.Fatalf("id after delete = %d, want 4", id2)
	}
	live := d.LiveIDs()
	want := []int{1, 2, 3, 4}
	if len(live) != len(want) {
		t.Fatalf("LiveIDs = %v", live)
	}
	for i := range want {
		if live[i] != want[i] {
			t.Fatalf("LiveIDs = %v, want %v", live, want)
		}
	}
	if _, err := d.Add(nil); err == nil {
		t.Fatal("Add(nil) accepted")
	}
}

func TestUpdateEdges(t *testing.T) {
	d := New(threeGraphs())
	before := d.Graph(0) // path 0-1
	if err := d.UpdateAddEdge(0, 0, 1); err == nil {
		t.Fatal("adding existing edge accepted")
	}
	if err := d.UpdateRemoveEdge(0, 0, 1); err != nil {
		t.Fatal(err)
	}
	if d.Graph(0).NumEdges() != 0 {
		t.Fatal("UR did not remove edge")
	}
	if before.NumEdges() != 1 {
		t.Fatal("UR mutated the old snapshot (copy-on-write violated)")
	}
	if err := d.UpdateAddEdge(0, 0, 1); err != nil {
		t.Fatal(err)
	}
	if d.Graph(0).NumEdges() != 1 {
		t.Fatal("UA did not add edge")
	}
	if err := d.UpdateAddEdge(5, 0, 1); err == nil {
		t.Fatal("UA on missing graph accepted")
	}
	if err := d.UpdateRemoveEdge(0, 0, 0); err == nil {
		t.Fatal("UR self loop accepted")
	}
	// updates on deleted graphs fail
	if err := d.Delete(1); err != nil {
		t.Fatal(err)
	}
	if err := d.UpdateAddEdge(1, 0, 1); err == nil {
		t.Fatal("UA on deleted graph accepted")
	}
}

func TestLogRecords(t *testing.T) {
	d := New(threeGraphs())
	if _, err := d.Add(graph.Single(4)); err != nil {
		t.Fatal(err)
	}
	if err := d.UpdateRemoveEdge(2, 0, 1); err != nil {
		t.Fatal(err)
	}
	if err := d.Delete(0); err != nil {
		t.Fatal(err)
	}
	if err := d.UpdateAddEdge(1, 0, 2); err != nil {
		t.Fatal(err)
	}
	if d.Seq() != 4 {
		t.Fatalf("Seq = %d, want 4", d.Seq())
	}
	all := d.RecordsSince(0)
	if len(all) != 4 {
		t.Fatalf("records = %d, want 4", len(all))
	}
	wantOps := []OpType{OpAdd, OpUpdateRemoveEdge, OpDelete, OpUpdateAddEdge}
	for i, r := range all {
		if r.Op != wantOps[i] {
			t.Errorf("record %d op = %v, want %v", i, r.Op, wantOps[i])
		}
		if r.Seq != uint64(i+1) {
			t.Errorf("record %d seq = %d", i, r.Seq)
		}
	}
	tail := d.RecordsSince(2)
	if len(tail) != 2 || tail[0].Op != OpDelete {
		t.Fatalf("RecordsSince(2) = %v", tail)
	}
	if got := d.RecordsSince(4); got != nil {
		t.Fatalf("RecordsSince(latest) = %v, want nil", got)
	}
	if got := d.RecordsSince(99); got != nil {
		t.Fatalf("RecordsSince(future) = %v, want nil", got)
	}
}

// TestTrimLog: a trim moves the log's base forward. RecordsSince answers
// every cursor at or past the base exactly like an untrimmed log and
// refuses cursors below it, and the slice shrinks once the dropped
// prefix is half of it.
func TestTrimLog(t *testing.T) {
	d, ref := New(threeGraphs()), New(threeGraphs())
	toggle := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			for _, ds := range []*Dataset{d, ref} {
				var err error
				if ds.Graph(0).HasEdge(0, 1) {
					err = ds.UpdateRemoveEdge(0, 0, 1)
				} else {
					err = ds.UpdateAddEdge(0, 0, 1)
				}
				if err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	requireSame := func(from uint64) {
		t.Helper()
		for c := from; c <= d.Seq(); c++ {
			got, want := d.RecordsSince(c), ref.RecordsSince(c)
			if len(got) != len(want) {
				t.Fatalf("RecordsSince(%d): %d records, want %d", c, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("RecordsSince(%d)[%d] = %+v, want %+v", c, i, got[i], want[i])
				}
			}
		}
	}
	toggle(10)
	d.TrimLog(3) // 3 of 10 dropped: not yet compacted
	if len(d.log) != 10 {
		t.Fatalf("log holds %d records after a small trim, want 10", len(d.log))
	}
	requireSame(3)
	d.TrimLog(6)
	if len(d.log) != 4 {
		t.Fatalf("log holds %d records after trimming through 6 of 10, want 4", len(d.log))
	}
	requireSame(6)
	d.TrimLog(2) // behind the base: no-op
	toggle(2)
	requireSame(6)
	d.TrimLog(99) // clamps to the newest record
	if len(d.log) != 0 || d.RecordsSince(d.Seq()) != nil {
		t.Fatalf("log holds %d records after trimming everything", len(d.log))
	}
	toggle(1)
	requireSame(12)
	defer func() {
		if recover() == nil {
			t.Fatal("RecordsSince below the trimmed base did not panic")
		}
	}()
	d.RecordsSince(11)
}

func TestOpTypeString(t *testing.T) {
	cases := map[OpType]string{
		OpAdd: "ADD", OpDelete: "DEL", OpUpdateAddEdge: "UA", OpUpdateRemoveEdge: "UR",
	}
	for op, want := range cases {
		if op.String() != want {
			t.Errorf("%d.String() = %q, want %q", op, op.String(), want)
		}
	}
	if OpType(42).String() == "" {
		t.Error("unknown op should still render")
	}
}

func TestAnalyze(t *testing.T) {
	recs := []Record{
		{Seq: 1, Op: OpUpdateAddEdge, GraphID: 3},
		{Seq: 2, Op: OpUpdateAddEdge, GraphID: 3},
		{Seq: 3, Op: OpUpdateRemoveEdge, GraphID: 5},
		{Seq: 4, Op: OpAdd, GraphID: 7},
		{Seq: 5, Op: OpDelete, GraphID: 2},
		{Seq: 6, Op: OpUpdateAddEdge, GraphID: 5},
	}
	c := Analyze(recs)
	if c.Empty() || c.Records != 6 {
		t.Fatalf("Records = %d", c.Records)
	}
	if c.Total[3] != 2 || c.UA[3] != 2 || c.UR[3] != 0 {
		t.Errorf("graph 3 counters wrong: %+v", c)
	}
	if !c.UAExclusive(3) {
		t.Error("graph 3 should be UA-exclusive")
	}
	if c.URExclusive(3) {
		t.Error("graph 3 is not UR-exclusive")
	}
	// graph 5 has UR then UA: neither exclusive
	if c.UAExclusive(5) || c.URExclusive(5) {
		t.Error("graph 5 mixed ops must not be exclusive")
	}
	// ADD/DEL count into Total only
	if c.Total[7] != 1 || c.UA[7] != 0 || c.UR[7] != 0 {
		t.Error("ADD must only bump CT")
	}
	if c.UAExclusive(7) || c.URExclusive(7) {
		t.Error("ADD-touched graph must not be UA/UR exclusive")
	}
	if c.UAExclusive(99) || c.URExclusive(99) {
		t.Error("untouched graph must not be exclusive")
	}
	ids := c.TouchedIDs()
	if len(ids) != 4 {
		t.Errorf("TouchedIDs = %v", ids)
	}
}

func TestAnalyzeEmpty(t *testing.T) {
	c := Analyze(nil)
	if !c.Empty() || len(c.TouchedIDs()) != 0 {
		t.Fatal("empty analysis wrong")
	}
}

func TestAnalyzeSince(t *testing.T) {
	d := New(threeGraphs())
	if err := d.UpdateAddEdge(0, 0, 1); err == nil {
		t.Fatal("edge exists; expected error")
	}
	if err := d.UpdateRemoveEdge(0, 0, 1); err != nil {
		t.Fatal(err)
	}
	mark := d.Seq()
	if err := d.UpdateAddEdge(0, 0, 1); err != nil {
		t.Fatal(err)
	}
	c := Analyze(d.RecordsSince(mark))
	if c.Records != 1 || c.UA[0] != 1 {
		t.Fatalf("AnalyzeSince wrong: %+v", c)
	}
	// failed operations must not be logged
	full := Analyze(d.RecordsSince(0))
	if full.Records != 2 {
		t.Fatalf("full analysis Records = %d, want 2", full.Records)
	}
}

func TestComputeStats(t *testing.T) {
	d := New(threeGraphs()) // sizes: (2v,1e),(3v,2e),(3v,3e)
	s := d.ComputeStats()
	if s.Graphs != 3 || s.TotalV != 8 || s.TotalE != 6 {
		t.Fatalf("stats = %+v", s)
	}
	if s.MaxV != 3 || s.MaxE != 3 || s.LabelKinds != 3 {
		t.Fatalf("stats = %+v", s)
	}
	if err := d.Delete(2); err != nil {
		t.Fatal(err)
	}
	s = d.ComputeStats()
	if s.Graphs != 2 || s.TotalE != 3 {
		t.Fatalf("stats after delete = %+v", s)
	}
}

func TestLiveSnapshotIsolation(t *testing.T) {
	d := New(threeGraphs())
	snap := d.LiveSnapshot()
	if err := d.Delete(1); err != nil {
		t.Fatal(err)
	}
	if !snap.Get(1) {
		t.Fatal("snapshot mutated by later delete")
	}
	snap.Clear(0)
	if !d.LiveSnapshot().Get(0) {
		t.Fatal("mutating snapshot affected dataset")
	}
}

func TestConcurrentAccess(t *testing.T) {
	d := New(threeGraphs())
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 200; i++ {
				switch rng.Intn(4) {
				case 0:
					_, _ = d.Add(graph.Path(1, 2))
				case 1:
					ids := d.LiveIDs()
					if len(ids) > 1 {
						_ = d.Delete(ids[rng.Intn(len(ids))])
					}
				case 2:
					_ = d.Graph(rng.Intn(10))
					_ = d.LiveCount()
				case 3:
					_ = Analyze(d.RecordsSince(0))
					_ = d.ComputeStats()
				}
			}
		}(int64(w))
	}
	wg.Wait()
	// log must be dense and ordered
	recs := d.RecordsSince(0)
	for i, r := range recs {
		if r.Seq != uint64(i+1) {
			t.Fatalf("log seq %d at index %d", r.Seq, i)
		}
	}
}

// Empty reports whether no record was analyzed.
func (c *Counters) Empty() bool { return c.Records == 0 }
