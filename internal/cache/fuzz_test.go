package cache

import (
	"math/rand"
	"testing"

	"gcplus/internal/bitset"
	"gcplus/internal/dataset"
	"gcplus/internal/graph"
	"gcplus/internal/subiso"
)

// FuzzParseModel checks that ParseModel accepts exactly CON and EVI and
// that accepted values round-trip through Model.String.
func FuzzParseModel(f *testing.F) {
	for _, s := range []string{"CON", "EVI", "", "con", "EVI ", "CONN", "E"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		m, err := ParseModel(s)
		canonical := s == "CON" || s == "EVI"
		if err != nil {
			if canonical {
				t.Fatalf("ParseModel rejected canonical %q: %v", s, err)
			}
			return
		}
		if !canonical {
			t.Fatalf("ParseModel accepted %q as %v", s, m)
		}
		if m.String() != s {
			t.Fatalf("round trip %q → %v → %q", s, m, m.String())
		}
	})
}

// FuzzQueryIndex drives a random operation stream — admissions (with
// brute-force-derived relations, as the runtime would supply), window
// flushes, evictions, refreshes and purges — against the relation graph
// and checks the cache's index invariants after every operation.
func FuzzQueryIndex(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{200, 63, 17, 99, 250, 1, 42, 42, 42, 13, 13, 13, 7, 7})
	f.Add([]byte{255, 254, 253, 3, 9, 27, 81, 243, 12, 34, 56, 78, 90})
	f.Fuzz(func(t *testing.T, data []byte) {
		c := New(Config{Capacity: 6, WindowSize: 2})
		oracle := subiso.Brute{}
		pos := 0
		next := func() byte {
			if pos >= len(data) {
				return 0
			}
			b := data[pos]
			pos++
			return b
		}
		check := func(op string) {
			if err := c.CheckIndex(); err != nil {
				t.Fatalf("after %s: %v", op, err)
			}
		}
		var live []*Entry
		refreshLive := func() {
			live = live[:0]
			c.ForEach(func(e *Entry) bool {
				live = append(live, e)
				return true
			})
		}
		for pos < len(data) {
			switch op := next() % 8; op {
			case 7: // purge (rare-ish)
				c.Purge()
				check("purge")
			case 6: // refresh a live entry in place
				refreshLive()
				if len(live) > 0 {
					e := live[int(next())%len(live)]
					c.RefreshEntry(e, bitset.FromIndices(int(next())%8), bitset.FromIndices(0, 1, 2))
					check("refresh")
				}
			default: // admit a small graph with exact relations
				b := graph.NewBuilder()
				n := 1 + int(next())%4
				for i := 0; i < n; i++ {
					b.AddVertex(graph.Label(next() % 3))
				}
				mask := next()
				edge := 0
				for u := 0; u < n; u++ {
					for v := u + 1; v < n; v++ {
						if mask&(1<<uint(edge%8)) != 0 {
							b.AddEdge(u, v)
						}
						edge++
					}
				}
				g := b.MustBuild()
				kind := Kind(op % 2)
				e := NewEntry(g, kind, bitset.FromIndices(int(next())%8), bitset.FromIndices(0, 1, 2, 3), 0, 1)
				containing, contained := []*Entry{}, []*Entry{}
				refreshLive()
				for _, o := range live {
					if o.Kind != kind {
						continue
					}
					if oracle.Contains(g, o.Query) {
						containing = append(containing, o)
					}
					if oracle.Contains(o.Query, g) {
						contained = append(contained, o)
					}
				}
				c.AddWithRelations(e, containing, contained)
				check("add")
			}
		}
	})
}

// FuzzValidateMatchesRefresh drives a random stream of admissions (and
// with them window flushes and evictions), iso-hit refreshes, repair
// drains and restores, purges and validations over random op logs.
// After every step CheckIndex must pass; every validation must match the
// per-entry Refresh/RefreshStrict reference bit for bit and append the
// cleared pairs to the repair queue by graph id, then entry ID
// (validateAgainstReference).
func FuzzValidateMatchesRefresh(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, 6, 6, 6, 6, 6, 6})
	f.Add([]byte{2, 200, 63, 17, 99, 250, 1, 42, 42, 42, 13, 13, 13, 7, 7, 6, 6})
	f.Add([]byte{3, 255, 254, 253, 3, 9, 27, 81, 243, 12, 34, 56, 78, 90, 5, 4, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		const maxID = 12
		c := New(Config{
			Capacity:           2 + int(data[0]>>1)%5,
			WindowSize:         1 + int(data[0]>>4)%3,
			StrictInvalidation: data[0]&1 == 1,
			RepairQueue:        int(data[1] % 24), // 0 disables collection
		})
		rng := rand.New(rand.NewSource(int64(data[1])))
		var live []*Entry
		refreshLive := func() {
			live = live[:0]
			c.ForEach(func(e *Entry) bool {
				live = append(live, e)
				return true
			})
		}
		for _, b := range data[2:] {
			refreshLive()
			switch op := b % 8; {
			case op < 3: // admit
				c.Add(randomEntry(rng, maxID))
			case op < 5: // validate a random op log
				recs, seq := randomLog(rng, c, 1+int(b>>3)%6, maxID)
				validateAgainstReference(t, c, dataset.Analyze(recs), seq)
			case op == 5 && len(live) > 0: // iso-hit refresh
				e := live[rng.Intn(len(live))]
				fresh := randomEntry(rng, maxID)
				c.RefreshEntry(e, fresh.Answer, fresh.Valid)
			case op == 6: // drain and restore some repairs
				for _, task := range c.DrainRepairs(1 + int(b>>3)%4) {
					c.RestoreBit(task.Entry, task.GraphID, rng.Intn(2) == 0)
				}
			case op == 7 && b&0x80 != 0: // purge (rarer)
				c.Purge()
			}
			if err := c.CheckIndex(); err != nil {
				t.Fatalf("after byte %d: %v", b, err)
			}
		}
	})
}

// FuzzParsePolicy checks that ParsePolicy accepts exactly the five
// replacement policies, as themselves.
func FuzzParsePolicy(f *testing.F) {
	for _, s := range []string{"PIN", "PINC", "HD", "LRU", "LFU", "", "pin", "PINCC", "H D"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		p, err := ParsePolicy(s)
		canonical := s == "PIN" || s == "PINC" || s == "HD" || s == "LRU" || s == "LFU"
		if err != nil {
			if canonical {
				t.Fatalf("ParsePolicy rejected canonical %q: %v", s, err)
			}
			return
		}
		if !canonical {
			t.Fatalf("ParsePolicy accepted %q as %v", s, p)
		}
		if string(p) != s {
			t.Fatalf("ParsePolicy changed %q to %q", s, p)
		}
	})
}
