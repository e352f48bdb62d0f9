package changeplan

import (
	"testing"

	"gcplus/internal/dataset"
	"gcplus/internal/graph"
	"gcplus/internal/synthetic"
)

func TestGenerateValidation(t *testing.T) {
	if _, err := Generate(Config{Queries: 0, Batches: 1, OpsPerBatch: 1}); err == nil {
		t.Error("zero queries accepted")
	}
	if _, err := Generate(Config{Queries: 10, Batches: -1, OpsPerBatch: 1}); err == nil {
		t.Error("negative batches accepted")
	}
	if _, err := Generate(Config{Queries: 10, Batches: 1, OpsPerBatch: 0}); err == nil {
		t.Error("zero ops accepted")
	}
}

func TestGenerateShape(t *testing.T) {
	cfg := Config{Queries: 100, Batches: 10, OpsPerBatch: 5, Seed: 1}
	p, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Batches) != 10 || p.TotalOps() != 50 || p.Queries != 100 {
		t.Fatalf("plan shape wrong: %d batches, %d ops", len(p.Batches), p.TotalOps())
	}
	last := -1
	for _, b := range p.Batches {
		if b.AtQuery < 0 || b.AtQuery >= 100 {
			t.Fatalf("occurrence time %d out of range", b.AtQuery)
		}
		if b.AtQuery < last {
			t.Fatal("batches not sorted")
		}
		last = b.AtQuery
		if len(b.Ops) != 5 {
			t.Fatalf("batch has %d ops", len(b.Ops))
		}
	}
}

func TestGenerateOpMix(t *testing.T) {
	p := mustGenerate(Config{Queries: 1000, Batches: 100, OpsPerBatch: 20, Seed: 2})
	counts := map[dataset.OpType]int{}
	for _, b := range p.Batches {
		for _, op := range b.Ops {
			counts[op]++
		}
	}
	total := p.TotalOps()
	for op := dataset.OpAdd; op <= dataset.OpUpdateRemoveEdge; op++ {
		frac := float64(counts[op]) / float64(total)
		if frac < 0.18 || frac > 0.32 {
			t.Errorf("op %v fraction %.2f, want ≈0.25", op, frac)
		}
	}
}

func TestDefaultAndScaled(t *testing.T) {
	d := Default()
	if d.Queries != 10000 || d.Batches != 100 || d.OpsPerBatch != 20 {
		t.Fatalf("Default = %+v", d)
	}
	s := Scaled(1000, 5)
	if s.Batches != 10 || s.OpsPerBatch != 20 || s.Queries != 1000 {
		t.Fatalf("Scaled = %+v", s)
	}
	// density preserved: ops/queries == 0.2
	if got := float64(s.Batches*s.OpsPerBatch) / float64(s.Queries); got != 0.2 {
		t.Fatalf("scaled density %g", got)
	}
	tiny := Scaled(5, 1)
	if tiny.Batches < 1 {
		t.Fatal("Scaled must keep at least one batch")
	}
}

func testDataset(t *testing.T, n int) (*dataset.Dataset, []*graph.Graph) {
	t.Helper()
	cfg := synthetic.Default().WithGraphs(n)
	cfg.MeanVertices = 12
	cfg.StdVertices = 3
	cfg.MaxVertices = 20
	gs, err := synthetic.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return dataset.New(gs), gs
}

func TestExecutorAppliesInOrder(t *testing.T) {
	ds, initial := testDataset(t, 20)
	p := mustGenerate(Config{Queries: 50, Batches: 10, OpsPerBatch: 3, Seed: 3})
	ex := NewExecutor(p, initial, 4)
	totalApplied := 0
	for q := 0; q < 50; q++ {
		n := ex.ApplyDue(ds, q)
		totalApplied += n
	}
	if !ex.Done() {
		t.Fatal("executor not done after final query")
	}
	if totalApplied != ex.Applied() {
		t.Fatalf("accounting mismatch: %d vs %d", totalApplied, ex.Applied())
	}
	if ex.Applied()+ex.Skipped() != p.TotalOps() {
		t.Fatalf("applied %d + skipped %d != %d ops", ex.Applied(), ex.Skipped(), p.TotalOps())
	}
	if ex.Skipped() > p.TotalOps()/4 {
		t.Fatalf("too many skipped ops: %d", ex.Skipped())
	}
	// log must reflect the applied operations
	if int(ds.Seq()) != ex.Applied() {
		t.Fatalf("dataset log has %d records, executor applied %d", ds.Seq(), ex.Applied())
	}
}

func TestExecutorIdempotentPerQueryIndex(t *testing.T) {
	ds, initial := testDataset(t, 10)
	p := mustGenerate(Config{Queries: 10, Batches: 4, OpsPerBatch: 2, Seed: 5})
	ex := NewExecutor(p, initial, 6)
	n1 := ex.ApplyDue(ds, 9)
	n2 := ex.ApplyDue(ds, 9)
	if n2 != 0 {
		t.Fatalf("second ApplyDue applied %d ops", n2)
	}
	if n1 != ex.Applied() {
		t.Fatal("accounting mismatch")
	}
}

func TestExecutorDatasetStaysUsable(t *testing.T) {
	ds, initial := testDataset(t, 15)
	p := mustGenerate(Config{Queries: 30, Batches: 30, OpsPerBatch: 4, Seed: 7})
	ex := NewExecutor(p, initial, 8)
	for q := 0; q < 30; q++ {
		ex.ApplyDue(ds, q)
		if ds.LiveCount() == 0 {
			t.Fatal("dataset drained")
		}
		for _, id := range ds.LiveIDs() {
			if err := ds.Graph(id).Validate(); err != nil {
				t.Fatalf("graph %d corrupted: %v", id, err)
			}
		}
	}
}

func TestExecutorDeterminism(t *testing.T) {
	run := func() uint64 {
		ds, initial := testDataset(t, 10)
		p := mustGenerate(Config{Queries: 20, Batches: 8, OpsPerBatch: 3, Seed: 9})
		ex := NewExecutor(p, initial, 10)
		for q := 0; q < 20; q++ {
			ex.ApplyDue(ds, q)
		}
		// summarize final state
		h := uint64(17)
		for _, id := range ds.LiveIDs() {
			g := ds.Graph(id)
			h = h*31 + uint64(id)
			h = h*31 + uint64(g.NumEdges())
		}
		return h
	}
	if run() != run() {
		t.Fatal("executor not deterministic")
	}
}

// TotalOps returns the number of operations across all batches.
func (p *Plan) TotalOps() int {
	n := 0
	for _, b := range p.Batches {
		n += len(b.Ops)
	}
	return n
}

// mustGenerate is Generate that fails loudly on a config error.
func mustGenerate(cfg Config) *Plan {
	p, err := Generate(cfg)
	if err != nil {
		panic(err)
	}
	return p
}
