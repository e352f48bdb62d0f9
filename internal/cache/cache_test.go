package cache

import (
	"testing"

	"gcplus/internal/bitset"
	"gcplus/internal/dataset"
	"gcplus/internal/graph"
)

func testEntry(kind Kind, answer, live []int, seq uint64) *Entry {
	return NewEntry(graph.Path(1, 2), kind,
		bitset.FromIndices(answer...), bitset.FromIndices(live...), seq, 1)
}

func TestNewEntrySnapshotsBitsets(t *testing.T) {
	ans := bitset.FromIndices(1)
	live := bitset.FromIndices(0, 1)
	e := NewEntry(graph.Path(1, 2), KindSub, ans, live, 0, 0.5)
	ans.Set(7)
	live.Clear(0)
	if e.Answer.Get(7) || !e.Valid.Get(0) {
		t.Fatal("entry shares bitsets with caller")
	}
	if e.CostEst != 0.5 {
		t.Fatal("cost estimate lost")
	}
}

func TestValidAnswerAndPossibleAnswer(t *testing.T) {
	// answers {2,3}, valid {0,1,2}: valid positives = {2}
	e := testEntry(KindSub, []int{2, 3}, []int{0, 1, 2}, 0)
	if got := e.ValidAnswer().String(); got != "{2}" {
		t.Fatalf("ValidAnswer = %s", got)
	}
	// formula (4): complement(valid) ∪ answer within live {0,1,2,3,4}
	live := bitset.FromIndices(0, 1, 2, 3, 4)
	// complement(valid) = {3,4}; ∪ answer {2,3} = {2,3,4}
	if got := e.PossibleAnswer(live).String(); got != "{2, 3, 4}" {
		t.Fatalf("PossibleAnswer = %s", got)
	}
}

func TestFullyValid(t *testing.T) {
	e := testEntry(KindSub, nil, []int{0, 1, 2}, 0)
	if !e.FullyValid(bitset.FromIndices(0, 1, 2)) {
		t.Fatal("entry should be fully valid")
	}
	if !e.FullyValid(bitset.FromIndices(0, 2)) {
		t.Fatal("fully valid on a subset of its validity")
	}
	if e.FullyValid(bitset.FromIndices(0, 3)) {
		t.Fatal("id 3 is not valid")
	}
}

func TestCreditUpdatesStats(t *testing.T) {
	e := testEntry(KindSub, nil, nil, 0)
	e.Credit(5, 17)
	e.Credit(3, 18)
	if e.R != 8 || e.Hits != 2 || e.LastUsed != 18 {
		t.Fatalf("stats wrong: %+v", e)
	}
}

// ---------------------------------------------------------------------
// Algorithm 2 (Refresh) semantics
// ---------------------------------------------------------------------

func countersFor(records ...dataset.Record) *dataset.Counters {
	return dataset.Analyze(records)
}

func TestRefreshUAExclusiveKeepsPositive(t *testing.T) {
	e := testEntry(KindSub, []int{0}, []int{0, 1}, 0)
	c := countersFor(dataset.Record{Seq: 1, Op: dataset.OpUpdateAddEdge, GraphID: 0})
	e.Refresh(c, 1)
	if !e.Valid.Get(0) {
		t.Fatal("UA-exclusive positive bit must survive (sub kind)")
	}
	if e.Seq != 1 {
		t.Fatal("Seq not advanced")
	}
}

func TestRefreshUAExclusiveClearsNegative(t *testing.T) {
	e := testEntry(KindSub, nil, []int{0}, 0) // negative answer on 0
	c := countersFor(dataset.Record{Seq: 1, Op: dataset.OpUpdateAddEdge, GraphID: 0})
	e.Refresh(c, 1)
	if e.Valid.Get(0) {
		t.Fatal("UA on a negative answer must invalidate (g ⊄ Gi may flip)")
	}
}

func TestRefreshURExclusiveKeepsNegative(t *testing.T) {
	e := testEntry(KindSub, nil, []int{0}, 0)
	c := countersFor(dataset.Record{Seq: 1, Op: dataset.OpUpdateRemoveEdge, GraphID: 0})
	e.Refresh(c, 1)
	if !e.Valid.Get(0) {
		t.Fatal("UR-exclusive negative bit must survive (sub kind)")
	}
}

func TestRefreshURExclusiveClearsPositive(t *testing.T) {
	e := testEntry(KindSub, []int{0}, []int{0}, 0)
	c := countersFor(dataset.Record{Seq: 1, Op: dataset.OpUpdateRemoveEdge, GraphID: 0})
	e.Refresh(c, 1)
	if e.Valid.Get(0) {
		t.Fatal("UR on a positive answer must invalidate")
	}
}

func TestRefreshMixedOpsClear(t *testing.T) {
	pos := testEntry(KindSub, []int{0}, []int{0}, 0)
	neg := testEntry(KindSub, nil, []int{0}, 0)
	c := countersFor(
		dataset.Record{Seq: 1, Op: dataset.OpUpdateAddEdge, GraphID: 0},
		dataset.Record{Seq: 2, Op: dataset.OpUpdateRemoveEdge, GraphID: 0},
	)
	pos.Refresh(c, 2)
	neg.Refresh(c, 2)
	if pos.Valid.Get(0) || neg.Valid.Get(0) {
		t.Fatal("mixed UA+UR must invalidate both polarities")
	}
}

func TestRefreshDeleteClears(t *testing.T) {
	e := testEntry(KindSub, []int{0}, []int{0}, 0)
	c := countersFor(dataset.Record{Seq: 1, Op: dataset.OpDelete, GraphID: 0})
	e.Refresh(c, 1)
	if e.Valid.Get(0) {
		t.Fatal("DEL must invalidate")
	}
}

func TestRefreshAlreadyInvalidStaysInvalid(t *testing.T) {
	e := testEntry(KindSub, []int{0}, nil, 0) // valid nowhere
	c := countersFor(dataset.Record{Seq: 1, Op: dataset.OpUpdateAddEdge, GraphID: 0})
	e.Refresh(c, 1)
	if e.Valid.Get(0) {
		t.Fatal("refresh must never resurrect validity")
	}
}

func TestRefreshNewIDStaysInvalid(t *testing.T) {
	e := testEntry(KindSub, nil, []int{0, 1}, 0)
	c := countersFor(dataset.Record{Seq: 1, Op: dataset.OpAdd, GraphID: 5})
	e.Refresh(c, 1)
	if e.Valid.Get(5) {
		t.Fatal("new dataset graph must be invalid for old entries")
	}
	if !e.Valid.Get(0) || !e.Valid.Get(1) {
		t.Fatal("untouched ids must keep validity")
	}
}

func TestRefreshSuperKindMirrored(t *testing.T) {
	// supergraph entries: UR-exclusive preserves positives,
	// UA-exclusive preserves negatives.
	posUR := testEntry(KindSuper, []int{0}, []int{0}, 0)
	posUR.Refresh(countersFor(dataset.Record{Seq: 1, Op: dataset.OpUpdateRemoveEdge, GraphID: 0}), 1)
	if !posUR.Valid.Get(0) {
		t.Fatal("super: UR-exclusive positive must survive")
	}
	posUA := testEntry(KindSuper, []int{0}, []int{0}, 0)
	posUA.Refresh(countersFor(dataset.Record{Seq: 1, Op: dataset.OpUpdateAddEdge, GraphID: 0}), 1)
	if posUA.Valid.Get(0) {
		t.Fatal("super: UA on positive must invalidate")
	}
	negUA := testEntry(KindSuper, nil, []int{0}, 0)
	negUA.Refresh(countersFor(dataset.Record{Seq: 1, Op: dataset.OpUpdateAddEdge, GraphID: 0}), 1)
	if !negUA.Valid.Get(0) {
		t.Fatal("super: UA-exclusive negative must survive")
	}
	negUR := testEntry(KindSuper, nil, []int{0}, 0)
	negUR.Refresh(countersFor(dataset.Record{Seq: 1, Op: dataset.OpUpdateRemoveEdge, GraphID: 0}), 1)
	if negUR.Valid.Get(0) {
		t.Fatal("super: UR on negative must invalidate")
	}
}

// TestFigure2Timeline replays the running example of the paper's Figure 2
// and checks the validity indicators after every event.
func TestFigure2Timeline(t *testing.T) {
	// T1: g' executed against {G0..G3}: g'⊆G2, g'⊆G3.
	gPrime := testEntry(KindSub, []int{2, 3}, []int{0, 1, 2, 3}, 0)

	// T2: ADD G4, UR G3.
	c2 := countersFor(
		dataset.Record{Seq: 1, Op: dataset.OpAdd, GraphID: 4},
		dataset.Record{Seq: 2, Op: dataset.OpUpdateRemoveEdge, GraphID: 3},
	)
	gPrime.Refresh(c2, 2)
	if got := gPrime.Valid.String(); got != "{0, 1, 2}" {
		t.Fatalf("after T2, CGvalid(g') = %s, want {0, 1, 2}", got)
	}

	// T3: g'' executed against {G0..G4}: g''⊆G2, g''⊆G3 (Figure 3(b)),
	// fully valid on the then-current dataset.
	gDouble := testEntry(KindSub, []int{2, 3}, []int{0, 1, 2, 3, 4}, 2)

	// T4: DEL G0, UA G1.
	c4 := countersFor(
		dataset.Record{Seq: 3, Op: dataset.OpDelete, GraphID: 0},
		dataset.Record{Seq: 4, Op: dataset.OpUpdateAddEdge, GraphID: 1},
	)
	gPrime.Refresh(c4, 4)
	gDouble.Refresh(c4, 4)

	// Figure 3(a): CGvalid(g') = {G2}.
	if got := gPrime.Valid.String(); got != "{2}" {
		t.Fatalf("after T4, CGvalid(g') = %s, want {2}", got)
	}
	// Figure 3(b): CGvalid(g'') = {G2, G3, G4}.
	if got := gDouble.Valid.String(); got != "{2, 3, 4}" {
		t.Fatalf("after T4, CGvalid(g'') = %s, want {2, 3, 4}", got)
	}
}

// ---------------------------------------------------------------------
// Cache admission, window, eviction, policies
// ---------------------------------------------------------------------

func TestConfigDefaults(t *testing.T) {
	c := New(Config{})
	cfg := c.Config()
	if cfg.Capacity != 100 || cfg.WindowSize != 20 || cfg.Policy != PolicyHD || cfg.Model != ModelCON {
		t.Fatalf("defaults wrong: %+v", cfg)
	}
}

func TestWindowFlushAtCapacity(t *testing.T) {
	c := New(Config{Capacity: 10, WindowSize: 3})
	for i := 0; i < 2; i++ {
		c.Add(testEntry(KindSub, nil, nil, 0))
	}
	if c.WindowLen() != 2 || c.Size() != 0 {
		t.Fatalf("window=%d size=%d", c.WindowLen(), c.Size())
	}
	c.Add(testEntry(KindSub, nil, nil, 0))
	if c.WindowLen() != 0 || c.Size() != 3 {
		t.Fatalf("after flush: window=%d size=%d", c.WindowLen(), c.Size())
	}
	admitted, evicted, _, _ := c.Counters()
	if admitted != 3 || evicted != 0 {
		t.Fatalf("admitted=%d evicted=%d", admitted, evicted)
	}
}

func TestEvictionKeepsHighScores(t *testing.T) {
	c := New(Config{Capacity: 2, WindowSize: 4, Policy: PolicyPIN})
	rs := []float64{5, 1, 9, 3}
	for _, r := range rs {
		e := testEntry(KindSub, nil, nil, 0)
		e.R = r
		c.Add(e)
	}
	if c.Size() != 2 {
		t.Fatalf("size = %d, want 2", c.Size())
	}
	var kept []float64
	c.ForEach(func(e *Entry) bool {
		kept = append(kept, e.R)
		return true
	})
	want := map[float64]bool{5: true, 9: true}
	for _, r := range kept {
		if !want[r] {
			t.Fatalf("kept R=%v, want {5,9}", kept)
		}
	}
	_, evicted, _, _ := c.Counters()
	if evicted != 2 {
		t.Fatalf("evicted = %d", evicted)
	}
}

func TestEvictionTieBreaksByID(t *testing.T) {
	c := New(Config{Capacity: 1, WindowSize: 2, Policy: PolicyPIN})
	a := testEntry(KindSub, nil, nil, 0)
	b := testEntry(KindSub, nil, nil, 0)
	c.Add(a) // ID 0
	c.Add(b) // ID 1 — same score; older (ID 0) evicted first
	if c.Size() != 1 {
		t.Fatalf("size = %d", c.Size())
	}
	c.ForEach(func(e *Entry) bool {
		if e.ID != 1 {
			t.Fatalf("kept entry ID %d, want 1", e.ID)
		}
		return true
	})
}

// rValuesOf mirrors Cache.RValues for a bare entry slice: the R
// distribution HD's CoV² decision reads.
func rValuesOf(entries []*Entry) []float64 {
	out := make([]float64, len(entries))
	for i, e := range entries {
		out[i] = e.R
	}
	return out
}

func TestPolicyScores(t *testing.T) {
	e1 := testEntry(KindSub, nil, nil, 0)
	e1.R, e1.CostEst, e1.Hits, e1.LastUsed = 10, 0.5, 3, 100
	e2 := testEntry(KindSub, nil, nil, 0)
	e2.R, e2.CostEst, e2.Hits, e2.LastUsed = 4, 2.0, 9, 50
	entries := []*Entry{e1, e2}

	rvals := rValuesOf(entries)
	if s := PolicyPIN.scoreAll(entries, rvals); s[0] != 10 || s[1] != 4 {
		t.Errorf("PIN scores %v", s)
	}
	if s := PolicyPINC.scoreAll(entries, rvals); s[0] != 5 || s[1] != 8 {
		t.Errorf("PINC scores %v", s)
	}
	if s := PolicyLRU.scoreAll(entries, rvals); s[0] != 100 || s[1] != 50 {
		t.Errorf("LRU scores %v", s)
	}
	if s := PolicyLFU.scoreAll(entries, rvals); s[0] != 3 || s[1] != 9 {
		t.Errorf("LFU scores %v", s)
	}
}

func TestHDSwitchesOnCoV(t *testing.T) {
	// Low variability R values: HD must behave like PINC.
	low1 := testEntry(KindSub, nil, nil, 0)
	low1.R, low1.CostEst = 10, 3
	low2 := testEntry(KindSub, nil, nil, 0)
	low2.R, low2.CostEst = 11, 1
	s := PolicyHD.scoreAll([]*Entry{low1, low2}, rValuesOf([]*Entry{low1, low2}))
	if s[0] != 30 || s[1] != 11 {
		t.Errorf("HD low-CoV scores %v, want PINC scores", s)
	}
	// High variability: one huge outlier forces CoV² > 1 → PIN.
	hi1 := testEntry(KindSub, nil, nil, 0)
	hi1.R, hi1.CostEst = 1000, 3
	hi2 := testEntry(KindSub, nil, nil, 0)
	hi2.R, hi2.CostEst = 1, 1
	hi3 := testEntry(KindSub, nil, nil, 0)
	hi3.R, hi3.CostEst = 1, 1
	hi4 := testEntry(KindSub, nil, nil, 0)
	hi4.R, hi4.CostEst = 1, 1
	s = PolicyHD.scoreAll([]*Entry{hi1, hi2, hi3, hi4}, rValuesOf([]*Entry{hi1, hi2, hi3, hi4}))
	if s[0] != 1000 || s[1] != 1 {
		t.Errorf("HD high-CoV scores %v, want PIN scores", s)
	}
}

func TestPurge(t *testing.T) {
	c := New(Config{Capacity: 10, WindowSize: 2, Model: ModelEVI})
	c.Add(testEntry(KindSub, nil, nil, 0))
	c.Add(testEntry(KindSub, nil, nil, 0))
	c.Add(testEntry(KindSub, nil, nil, 0))
	if c.Size() == 0 && c.WindowLen() == 0 {
		t.Fatal("setup failed")
	}
	c.Purge()
	if c.Size() != 0 || c.WindowLen() != 0 {
		t.Fatal("purge left entries")
	}
	_, _, purges, _ := c.Counters()
	if purges != 1 {
		t.Fatalf("purges = %d", purges)
	}
}

func TestForEachWindowFirstAndEarlyStop(t *testing.T) {
	c := New(Config{Capacity: 10, WindowSize: 2})
	c.Add(testEntry(KindSub, nil, nil, 0)) // ID 0
	c.Add(testEntry(KindSub, nil, nil, 0)) // ID 1 → flush both to cache
	c.Add(testEntry(KindSub, nil, nil, 0)) // ID 2 stays in window
	var ids []int
	c.ForEach(func(e *Entry) bool {
		ids = append(ids, e.ID)
		return true
	})
	if len(ids) != 3 || ids[0] != 2 {
		t.Fatalf("ForEach order %v, want window entry (2) first", ids)
	}
	n := 0
	c.ForEach(func(e *Entry) bool {
		n++
		return false
	})
	if n != 1 {
		t.Fatalf("early stop visited %d", n)
	}
}

func TestValidateSweepsWindowAndCache(t *testing.T) {
	c := New(Config{Capacity: 10, WindowSize: 2})
	e1 := testEntry(KindSub, []int{0}, []int{0}, 0)
	e2 := testEntry(KindSub, []int{0}, []int{0}, 0)
	e3 := testEntry(KindSub, []int{0}, []int{0}, 0)
	c.Add(e1)
	c.Add(e2) // flushed with e1
	c.Add(e3) // in window
	ctrs := countersFor(dataset.Record{Seq: 1, Op: dataset.OpDelete, GraphID: 0})
	c.Validate(ctrs, 1)
	for _, e := range []*Entry{e1, e2, e3} {
		if e.Valid.Get(0) {
			t.Fatal("Validate missed an entry")
		}
		if e.Seq != 1 {
			t.Fatal("Seq not advanced")
		}
	}
	if c.AppliedSeq() != 1 {
		t.Fatalf("AppliedSeq = %d", c.AppliedSeq())
	}
}

func TestParseModelAndPolicy(t *testing.T) {
	if m, err := ParseModel("EVI"); err != nil || m != ModelEVI {
		t.Error("ParseModel EVI failed")
	}
	if m, err := ParseModel("CON"); err != nil || m != ModelCON {
		t.Error("ParseModel CON failed")
	}
	if _, err := ParseModel("x"); err == nil {
		t.Error("bad model accepted")
	}
	if ModelEVI.String() != "EVI" || ModelCON.String() != "CON" {
		t.Error("Model.String wrong")
	}
	for _, p := range []string{"PIN", "PINC", "HD", "LRU", "LFU"} {
		if _, err := ParsePolicy(p); err != nil {
			t.Errorf("ParsePolicy(%s): %v", p, err)
		}
	}
	if _, err := ParsePolicy("RANDOM"); err == nil {
		t.Error("bad policy accepted")
	}
	if KindSub.String() != "sub" || KindSuper.String() != "super" {
		t.Error("Kind.String wrong")
	}
}

func TestRValues(t *testing.T) {
	c := New(Config{Capacity: 10, WindowSize: 3})
	for i, r := range []float64{1, 2, 3, 4} {
		e := testEntry(KindSub, nil, nil, 0)
		e.R = r
		c.Add(e)
		_ = i
	}
	vals := c.RValues()
	if len(vals) != 4 {
		t.Fatalf("RValues len = %d", len(vals))
	}
	sum := 0.0
	for _, v := range vals {
		sum += v
	}
	if sum != 10 {
		t.Fatalf("RValues sum = %g", sum)
	}
}

// Refresh is Validate's test reference: Algorithm 2 applied verbatim to
// a single entry using the Log Analyzer's counters. It advances the
// entry's reflected sequence number to seq.
func (e *Entry) Refresh(c *dataset.Counters, seq uint64) {
	e.refresh(c, seq, false)
}

// RefreshStrict invalidates every touched bit without the UA/UR-exclusive
// survival rules — the ablated Algorithm 2 used to quantify how much of
// CON's benefit the optimizations contribute (still correct, strictly
// more conservative).
func (e *Entry) RefreshStrict(c *dataset.Counters, seq uint64) {
	e.refresh(c, seq, true)
}

func (e *Entry) refresh(c *dataset.Counters, seq uint64, strict bool) {
	for id := range c.Total {
		if strict {
			e.Valid.Clear(id)
			continue
		}
		keepPositive := c.UAExclusive(id)
		keepNegative := c.URExclusive(id)
		if e.Kind == KindSuper {
			keepPositive, keepNegative = keepNegative, keepPositive
		}
		switch {
		case keepPositive && e.Valid.Get(id) && e.Answer.Get(id):
			// validity survives (Algorithm 2 line 12–13)
		case keepNegative && e.Valid.Get(id) && !e.Answer.Get(id):
			// validity survives (Algorithm 2 line 14–15)
		default:
			e.Valid.Clear(id) // Algorithm 2 line 17
		}
	}
	e.Seq = seq
}
