package router

import (
	"context"
	"testing"

	"gcplus/internal/cache"
	"gcplus/internal/changeplan"
	"gcplus/internal/testutil"
)

// TestTransportDifferential runs the same query workload against two
// routers that differ only in their shard transport — local in-process
// calls vs the loopback TCP wire — and demands bit-identical results:
// same answer ids, same limited prefixes, same truncation flags. The
// transport seam must be invisible to every caller above the router.
func TestTransportDifferential(t *testing.T) {
	initial := genGraphs(t, 60, 17)
	queries := testQueries(initial)
	if len(queries) == 0 {
		t.Fatal("no test queries generated")
	}

	opts := Options{
		Shards: 4,
		Method: "VF2",
		Cache:  &cache.Config{Capacity: 32, WindowSize: 4},
	}
	local, err := New(initial, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()
	optsLB := opts
	optsLB.Transport = TransportLoopback
	remote, err := New(initial, optsLB)
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	if local.transportKind != TransportLocal || remote.transportKind != TransportLoopback {
		t.Fatalf("transports %q / %q", local.transportKind, remote.transportKind)
	}

	ctx := context.Background()
	for qi, q := range queries {
		a, err := subQ(local, q)
		if err != nil {
			t.Fatal(err)
		}
		b, err := subQ(remote, q)
		if err != nil {
			t.Fatal(err)
		}
		if !equalIDs(a.IDs, b.IDs) {
			t.Fatalf("sub query %d: local %v loopback %v", qi, a.IDs, b.IDs)
		}
		if a.Candidates != b.Candidates || a.SubIsoTests != b.SubIsoTests {
			t.Fatalf("sub query %d: stats diverge local(%d,%d) loopback(%d,%d)",
				qi, a.Candidates, a.SubIsoTests, b.Candidates, b.SubIsoTests)
		}

		as, err := superQ(local, q)
		if err != nil {
			t.Fatal(err)
		}
		bs, err := superQ(remote, q)
		if err != nil {
			t.Fatal(err)
		}
		if !equalIDs(as.IDs, bs.IDs) {
			t.Fatalf("super query %d: local %v loopback %v", qi, as.IDs, bs.IDs)
		}

		// ?limit=N semantics must agree too: the limited answer is an
		// exact prefix of the full global (ascending-id) answer, and the
		// truncation flag fires on both sides or neither.
		for _, limit := range []int{1, 2, len(a.IDs), len(a.IDs) + 3} {
			if limit == 0 {
				continue
			}
			la, err := local.Query(ctx, cache.KindSub, q, limit)
			if err != nil {
				t.Fatal(err)
			}
			lb, err := remote.Query(ctx, cache.KindSub, q, limit)
			if err != nil {
				t.Fatal(err)
			}
			if !equalIDs(la.IDs, lb.IDs) || la.Truncated != lb.Truncated {
				t.Fatalf("sub query %d limit %d: local %v(%v) loopback %v(%v)",
					qi, limit, la.IDs, la.Truncated, lb.IDs, lb.Truncated)
			}
			wantPrefix := a.IDs
			if limit < len(wantPrefix) {
				wantPrefix = wantPrefix[:limit]
			}
			if !equalIDs(la.IDs, wantPrefix) {
				t.Fatalf("sub query %d limit %d: %v is not a prefix of %v", qi, limit, la.IDs, a.IDs)
			}
			if la.Truncated != (limit < len(a.IDs)) {
				t.Fatalf("sub query %d limit %d: truncated=%v with %d full answers",
					qi, limit, la.Truncated, len(a.IDs))
			}
		}
	}

	// Updates must route identically over both transports.
	for _, g := range genGraphs(t, 4, 99) {
		ops := []changeplan.Op{changeplan.AddOp(g.Clone())}
		if _, err := local.Update(ops); err != nil {
			t.Fatal(err)
		}
		if _, err := remote.Update([]changeplan.Op{changeplan.AddOp(g.Clone())}); err != nil {
			t.Fatal(err)
		}
	}
	for qi, q := range queries {
		a, err := subQ(local, q)
		if err != nil {
			t.Fatal(err)
		}
		b, err := subQ(remote, q)
		if err != nil {
			t.Fatal(err)
		}
		if !equalIDs(a.IDs, b.IDs) {
			t.Fatalf("post-update sub query %d: local %v loopback %v", qi, a.IDs, b.IDs)
		}
	}
}

// TestCloseLeavesNoGoroutines: after Close and after the crash-shaped
// CloseAbrupt, on both transports, everything a durable server started —
// shard owners, repair workers, the pressure ticker, the snapshot
// collector, loopback listeners and connection pumps — must be gone.
func TestCloseLeavesNoGoroutines(t *testing.T) {
	initial := genGraphs(t, 24, 13)
	for _, transport := range []string{TransportLocal, TransportLoopback} {
		for _, abrupt := range []bool{false, true} {
			name := transport + "/Close"
			if abrupt {
				name = transport + "/CloseAbrupt"
			}
			t.Run(name, func(t *testing.T) {
				check := testutil.GoroutineBaseline(t)
				srv, err := New(initial, Options{Shards: 2, Transport: transport, DataDir: t.TempDir(), NoSync: true})
				if err != nil {
					t.Fatal(err)
				}
				for _, q := range testQueries(initial) {
					if _, err := subQ(srv, q); err != nil {
						t.Fatal(err)
					}
				}
				if _, err := srv.Update([]changeplan.Op{changeplan.DeleteOp(0)}); err != nil {
					t.Fatal(err)
				}
				if abrupt {
					srv.CloseAbrupt()
				} else if err := srv.Close(); err != nil {
					t.Fatal(err)
				}
				check()
			})
		}
	}
}
