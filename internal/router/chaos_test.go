package router

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gcplus/internal/cache"
	"gcplus/internal/core"
	"gcplus/internal/faultfs"
	"gcplus/internal/persist"
)

// TestChaosSoakDifferential is the chaos harness acceptance test: a
// durable server runs the PR-3 style differential oracle continuously
// while the fault injector tears WAL writes, fails snapshot files and
// renames, stalls shard jobs and skews the serving clock — under both
// WAL failure policies. The invariants under fault load:
//
//   - every answer stays bit-identical to a fault-free reference
//     replica applying the same batches (degraded or not, answers are
//     exact);
//   - the server never deadlocks or crashes (the test itself, run
//     under -race in CI, is the detector);
//   - after an abrupt kill, warm restart plus re-application of the
//     lost tail converges to the reference again.
func TestChaosSoakDifferential(t *testing.T) {
	for _, policy := range []string{WALPolicyFailUpdate, WALPolicyDegradeToVolatile} {
		t.Run(policy, func(t *testing.T) { chaosSoak(t, policy, TransportLocal) })
	}
	// The same soak over the loopback wire: faults, recovery and the
	// bit-identity oracle must be transport-independent. One policy is
	// enough — the wire path does not branch on WAL policy.
	t.Run(WALPolicyFailUpdate+"/loopback", func(t *testing.T) {
		chaosSoak(t, WALPolicyFailUpdate, TransportLoopback)
	})
}

func chaosSoak(t *testing.T, policy, transport string) {
	initial := genGraphs(t, 36, 21)
	queries := testQueries(initial)
	dir := t.TempDir()

	// The injector boots clean (the initial snapshot generation must
	// land — New fails otherwise) and is armed right after New.
	ffs := faultfs.New(persist.OSFS, 0xC0FFEE)

	// Clock skew: every 13th clock read steps 40ms backwards. Skew must
	// only distort duration metrics, never epochs or durability.
	var clockReads atomic.Int64
	skewedNow := func() time.Time {
		if clockReads.Add(1)%13 == 0 {
			return time.Now().Add(-40 * time.Millisecond)
		}
		return time.Now()
	}
	// Shard stall: every 31st job pauses, injecting head-of-line
	// blocking into the owner queues.
	var jobCount atomic.Int64
	stall := func(int) {
		if jobCount.Add(1)%31 == 0 {
			time.Sleep(2 * time.Millisecond)
		}
	}

	opts := Options{
		Shards:        2,
		DataDir:       dir,
		SnapshotEvery: 3,
		NoSync:        true,
		WALPolicy:     policy,
		QueryTimeout:  10 * time.Second, // wired but generous: the soak should not 504
		Cache:         &cache.Config{Capacity: 64, WindowSize: 5, Policy: cache.PolicyPIN},
		Faults:        &FaultInjection{FS: ffs, ShardStall: stall, Now: skewedNow},
		Transport:     transport,
	}
	srv, err := New(initial, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []faultfs.Rule{
		{ID: "wal-write-fail", Op: faultfs.OpWrite, Path: "wal-", Prob: 0.20},
		{ID: "wal-torn", Op: faultfs.OpWrite, Path: "wal-", Prob: 0.10, Torn: 7},
		{ID: "wal-latency", Op: faultfs.OpWrite, Path: "wal-", Prob: 0.10, Delay: 500 * time.Microsecond, DelayOnly: true},
		{ID: "snap-write-fail", Op: faultfs.OpWrite, Path: "snap-", Prob: 0.25},
		{ID: "snap-sync-fail", Op: faultfs.OpSync, Path: "snap-", Prob: 0.20},
		{ID: "snap-rename-fail", Op: faultfs.OpRename, Path: "snap-", Prob: 0.25},
	} {
		ffs.AddRule(r)
	}

	// Fault-free reference replica: same sharding and cache, no
	// persistence. The oracle: answers must match it bit for bit.
	ref, err := New(initial, Options{Shards: 2,
		Cache: &cache.Config{Capacity: 64, WindowSize: 5, Policy: cache.PolicyPIN}})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()

	// Background readers keep concurrent query load on the chaotic
	// server for the whole soak; only clean results or admission/
	// deadline errors are acceptable outcomes.
	var stop atomic.Bool
	var readersDone sync.WaitGroup
	var cleanReads atomic.Int64
	for r := 0; r < 3; r++ {
		readersDone.Add(1)
		go func(r int) {
			defer readersDone.Done()
			for !stop.Load() {
				q := queries[r%len(queries)]
				if _, err := subQ(srv, q); err != nil {
					var ce *core.CancelError
					if !IsOverload(err) && !errors.As(err, &ce) {
						t.Errorf("reader %d: %v", r, err)
						return
					}
				} else {
					cleanReads.Add(1)
				}
			}
		}(r)
	}

	batches := deterministicBatches(initial, 18)
	for i, ops := range batches {
		res, err := srv.Update(ops)
		if res == nil {
			t.Fatalf("batch %d rejected outright: %v", i, err)
		}
		// err != nil with a result is the fail-update durability report:
		// the batch is applied, the WAL gap is open. Expected chaos.
		if _, err := ref.Update(ops); err != nil {
			t.Fatal(err)
		}
		if (i+1)%3 == 0 {
			requireSameAnswers(t, "soak", probeAnswers(t, ref, queries), probeAnswers(t, srv, queries))
		}
	}
	stop.Store(true)
	readersDone.Wait()
	if cleanReads.Load() == 0 {
		t.Fatal("no successful concurrent reads during the soak")
	}
	st, err := srv.Stats()
	if err != nil {
		t.Fatal(err)
	}
	finalEpoch := st.Epoch
	if finalEpoch != uint64(len(batches)) {
		t.Fatalf("epoch %d after %d batches", finalEpoch, len(batches))
	}

	// Abrupt kill mid-chaos, then recovery with the faults stopped (the
	// disk has settled; recovery itself runs on healthy storage).
	srv.CloseAbrupt()
	ffs.Stop()
	events := ffs.Events()
	if len(events) == 0 {
		t.Fatal("chaos soak fired no faults — the schedule is dead")
	}

	rec, err := New(nil, opts)
	if err != nil {
		t.Fatalf("warm restart after chaos: %v", err)
	}
	defer rec.Close()
	_, epoch, ok := rec.Recovered()
	if !ok || epoch > finalEpoch {
		t.Fatalf("recovered (%d, %v), want epoch <= %d", epoch, ok, finalEpoch)
	}
	// Re-apply the batches the crash lost (the client retry path) and
	// demand convergence with the reference.
	for _, ops := range batches[epoch:] {
		if _, err := rec.Update(ops); err != nil {
			t.Fatal(err)
		}
	}
	awaitRepairDrain(t, rec)
	requireSameAnswers(t, "post-recovery", probeAnswers(t, ref, queries), probeAnswers(t, rec, queries))
	t.Logf("soak survived %d injected faults (policy %s), recovered at epoch %d/%d, %d clean concurrent reads",
		len(events), policy, epoch, finalEpoch, cleanReads.Load())
}
