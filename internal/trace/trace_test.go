package trace

import (
	"fmt"
	"testing"
)

func TestIDsNonZeroAndDistinct(t *testing.T) {
	seen := make(map[ID]bool)
	for i := 0; i < 10000; i++ {
		id := NewTraceID()
		if id == 0 {
			t.Fatal("zero trace id")
		}
		if seen[id] {
			t.Fatalf("duplicate id %v", id)
		}
		seen[id] = true
	}
}

func TestIDStringRoundTrip(t *testing.T) {
	for _, id := range []ID{1, 0xdeadbeef, NewTraceID()} {
		s := id.String()
		if len(s) != 16 {
			t.Fatalf("ID %v renders as %q (len %d), want 16 hex digits", uint64(id), s, len(s))
		}
		back, ok := ParseID(s)
		if !ok || back != id {
			t.Fatalf("ParseID(%q) = %v, %v; want %v", s, back, ok, id)
		}
	}
	for _, bad := range []string{"", "zz", "00000000000000000", "g000000000000000"} {
		if _, ok := ParseID(bad); ok {
			t.Fatalf("ParseID(%q) unexpectedly ok", bad)
		}
	}
}

func TestSamplerRates(t *testing.T) {
	cases := []struct {
		rate float64
		want int // sampled out of 1000
	}{
		{0, 0},
		{-1, 0},
		{1, 1000},
		{2, 1000},
		{0.5, 500},
		{0.01, 10},
	}
	for _, c := range cases {
		s := NewSampler(c.rate)
		got := 0
		for i := 0; i < 1000; i++ {
			if s.Sample() {
				got++
			}
		}
		if got != c.want {
			t.Errorf("rate %v: sampled %d/1000, want %d", c.rate, got, c.want)
		}
	}
}

func TestSpanBounds(t *testing.T) {
	var s Span
	for i := 0; i < MaxAttrs+5; i++ {
		s.SetAttr(fmt.Sprintf("k%d", i), "v")
	}
	if len(s.Attrs) != MaxAttrs {
		t.Fatalf("attrs grew to %d, want cap %d", len(s.Attrs), MaxAttrs)
	}
	if got := s.Attr("k0"); got != "v" {
		t.Fatalf("Attr(k0) = %q", got)
	}
	if got := s.Attr("missing"); got != "" {
		t.Fatalf("Attr(missing) = %q", got)
	}
}

func TestStoreTailRetention(t *testing.T) {
	st := NewStore(16)
	anomalous := &Trace{ID: NewTraceID(), Anomaly: AnomalySlow}
	st.Add(anomalous)
	// Flood with healthy traces far past every capacity.
	for i := 0; i < 1000; i++ {
		st.Add(&Trace{ID: NewTraceID()})
	}
	if got := st.Get(anomalous.ID); got != anomalous {
		t.Fatal("anomalous trace evicted by normal traffic")
	}
	// Normal ring full (16) plus the single anomalous entry.
	snap := st.Snapshot()
	if len(snap) != 17 {
		t.Fatalf("snapshot has %d traces, want 17", len(snap))
	}
	found := false
	for _, tr := range snap {
		if tr.ID == anomalous.ID {
			found = true
		}
	}
	if !found {
		t.Fatal("anomalous trace missing from snapshot")
	}
	if st.Added() != 1001 {
		t.Fatalf("Added() = %d, want 1001", st.Added())
	}
}

func TestStoreNewestFirst(t *testing.T) {
	st := NewStore(8)
	var ids []ID
	for i := 0; i < 12; i++ {
		tr := &Trace{ID: NewTraceID()}
		if i%3 == 0 {
			tr.Anomaly = AnomalyError
		}
		st.Add(tr)
		ids = append(ids, tr.ID)
	}
	snap := st.Snapshot()
	if len(snap) == 0 {
		t.Fatal("empty snapshot")
	}
	// Newest addition must lead regardless of which ring it landed in.
	if snap[0].ID != ids[len(ids)-1] {
		t.Fatalf("snapshot[0] = %v, want newest %v", snap[0].ID, ids[len(ids)-1])
	}
	for i := 1; i < len(snap); i++ {
		// Strictly decreasing insertion order.
		pi, ci := indexOf(ids, snap[i-1].ID), indexOf(ids, snap[i].ID)
		if pi <= ci {
			t.Fatalf("snapshot not newest-first at %d: %d then %d", i, pi, ci)
		}
	}
}

func indexOf(ids []ID, id ID) int {
	for i, v := range ids {
		if v == id {
			return i
		}
	}
	return -1
}
