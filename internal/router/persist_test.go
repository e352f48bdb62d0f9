package router

import (
	"io"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"gcplus/internal/cache"
	"gcplus/internal/changeplan"
	"gcplus/internal/graph"
	"gcplus/internal/persist"
)

// persistTestOptions returns serving options with durability on. The
// PIN policy keeps eviction deterministic (HD/PINC score by measured
// CPU time), so recovered and reference instances stay comparable
// entry for entry; NoSync skips per-append fsyncs — the tests exercise
// crash *consistency* (torn files, partial generations), not the
// storage stack's power-loss behavior.
func persistTestOptions(dir string, shards int) Options {
	return Options{
		Shards:        shards,
		DataDir:       dir,
		SnapshotEvery: 1 << 30, // snapshots forced explicitly
		NoSync:        true,
		Cache:         &cache.Config{Capacity: 64, WindowSize: 5, Policy: cache.PolicyPIN},
	}
}

// deterministicBatches builds n update batches whose per-op outcomes
// are functions of dataset state only, so a reference replica applying
// the same batches lands in the identical state.
func deterministicBatches(initial []*graph.Graph, n int) [][]changeplan.Op {
	batches := make([][]changeplan.Op, 0, n)
	for j := 0; j < n; j++ {
		g := initial[j%len(initial)]
		ops := []changeplan.Op{changeplan.AddOp(g.Clone())}
		if g.NumEdges() > 0 {
			e := g.EdgeList()[j%g.NumEdges()]
			ops = append(ops, changeplan.RemoveEdgeOp(j%len(initial), int(e.U), int(e.V)))
		}
		if j%3 == 2 {
			ops = append(ops, changeplan.DeleteOp(j))
		}
		batches = append(batches, ops)
	}
	return batches
}

// probeAnswers runs every query in both kinds and returns the answer id
// lists in order.
func probeAnswers(t *testing.T, srv *Server, queries []*graph.Graph) [][]int {
	t.Helper()
	var out [][]int
	for _, q := range queries {
		sub, err := subQ(srv, q)
		if err != nil {
			t.Fatal(err)
		}
		sup, err := superQ(srv, q)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, sub.IDs, sup.IDs)
	}
	return out
}

func requireSameAnswers(t *testing.T, label string, want, got [][]int) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d vs %d probe answers", label, len(want), len(got))
	}
	for i := range want {
		if !equalIDs(want[i], got[i]) {
			t.Fatalf("%s: probe %d: want %v, got %v", label, i, want[i], got[i])
		}
	}
}

// awaitRepairDrain polls until the repair pipeline is idle: no queued
// pairs and no commit in flight (the restored-bits counter stable
// across polls). Full validity is not required — entries admitted
// before an ADD legitimately stay invalid on the new graph id until a
// re-execution refreshes them; repair only restores bits it can prove.
func awaitRepairDrain(t *testing.T, srv *Server) *Stats {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	lastRepaired := int64(-1)
	for {
		st, err := srv.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if st.PendingRepairs == 0 {
			if st.RepairedBits == lastRepaired {
				return st
			}
			lastRepaired = st.RepairedBits
		} else {
			lastRepaired = -1
		}
		if time.Now().After(deadline) {
			t.Fatalf("repair did not drain: pending=%d repaired=%d", st.PendingRepairs, st.RepairedBits)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestWarmRestartDifferential is the end-to-end recovery oracle: a
// durable server warms its caches with queries and update batches,
// shuts down gracefully, and is rebooted from its data directory; a cold
// replica applies the identical batches from scratch. The recovered
// server must come back at the same epoch with every graph and an empty
// cache, answer every probe bit-identically to the cold rebuild, and
// keep doing so as further updates and queries land on both.
func TestWarmRestartDifferential(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		initial := genGraphs(t, 36, seed)
		queries := testQueries(initial)
		dir := t.TempDir()
		opts := persistTestOptions(dir, 3)
		opts.SnapshotEvery = 3 // let the automatic trigger fire too

		srv, err := New(initial, opts)
		if err != nil {
			t.Fatal(err)
		}
		batches := deterministicBatches(initial, 7)
		for i, ops := range batches {
			probeAnswers(t, srv, queries) // warm the caches between batches
			if _, err := srv.Update(ops); err != nil {
				t.Fatalf("batch %d: %v", i, err)
			}
		}
		probeAnswers(t, srv, queries)
		st, err := srv.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if st.Epoch != uint64(len(batches)) {
			t.Fatalf("epoch %d, want %d", st.Epoch, len(batches))
		}
		warmEntries := 0
		for _, ss := range st.PerShard {
			warmEntries += ss.Cache.Entries + ss.Cache.Window
		}
		if warmEntries == 0 {
			t.Fatal("test needs a warmed cache")
		}
		srv.Close() // graceful: final snapshot generation

		// Cold replica: fresh server, same batches.
		coldOpts := opts
		coldOpts.DataDir = ""
		cold, err := New(initial, coldOpts)
		if err != nil {
			t.Fatal(err)
		}
		defer cold.Close()
		for _, ops := range batches {
			if _, err := cold.Update(ops); err != nil {
				t.Fatal(err)
			}
		}

		// Warm restart. The initial slice is ignored: pass nil.
		srv2, err := New(nil, opts)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		graphs, epoch, ok := srv2.Recovered()
		if !ok || graphs != st.LiveGraphs || epoch != uint64(len(batches)) {
			t.Fatalf("seed %d: recovered (%d,%d,%v), want (%d,%d,true)",
				seed, graphs, epoch, ok, st.LiveGraphs, len(batches))
		}
		restarted, err := srv2.Stats()
		if err != nil {
			t.Fatal(err)
		}
		for i, ss := range restarted.PerShard {
			if n := ss.Cache.Entries + ss.Cache.Window; n != 0 {
				t.Fatalf("seed %d: shard %d restarted with %d cache entries, want none", seed, i, n)
			}
		}
		requireSameAnswers(t, "after restart",
			probeAnswers(t, cold, queries), probeAnswers(t, srv2, queries))

		// Both keep evolving identically: more updates, more queries.
		more := deterministicBatches(initial, 11)[7:]
		for _, ops := range more {
			r1, err := srv2.Update(ops)
			if err != nil {
				t.Fatal(err)
			}
			r2, err := cold.Update(ops)
			if err != nil {
				t.Fatal(err)
			}
			if r1.Applied != r2.Applied {
				t.Fatalf("seed %d: applied %d vs %d", seed, r1.Applied, r2.Applied)
			}
			for i := range r1.Ops {
				if r1.Ops[i].ID != r2.Ops[i].ID {
					t.Fatalf("seed %d: op %d assigned id %d vs %d", seed, i, r1.Ops[i].ID, r2.Ops[i].ID)
				}
			}
		}
		requireSameAnswers(t, "after post-restart updates",
			probeAnswers(t, cold, queries), probeAnswers(t, srv2, queries))
		drained := awaitRepairDrain(t, srv2)
		if !drained.PersistEnabled || drained.RecoveredEpoch != uint64(len(batches)) {
			t.Fatalf("seed %d: stats %+v", seed, drained)
		}
		srv2.Close()
	}
}

// copyTree clones a data directory so each kill point starts from the
// same post-crash disk image.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCrashRecoveryKillPoints truncates the WAL at every frame boundary
// and mid-frame and asserts that recovery plus re-application of the
// lost batches converges to answers bit-identical to an uninterrupted
// run — after the repair pipeline drains. Single shard, so every kill
// point is a well-defined byte offset.
func TestCrashRecoveryKillPoints(t *testing.T) {
	initial := genGraphs(t, 30, 5)
	queries := testQueries(initial)
	dir := t.TempDir()
	opts := persistTestOptions(dir, 1)

	srv, err := New(initial, opts)
	if err != nil {
		t.Fatal(err)
	}
	batches := deterministicBatches(initial, 6)
	const snapAfter = 2
	for i, ops := range batches {
		probeAnswers(t, srv, queries)
		if _, err := srv.Update(ops); err != nil {
			t.Fatal(err)
		}
		if i+1 == snapAfter {
			if err := srv.Snapshot(); err != nil {
				t.Fatal(err)
			}
		}
	}
	probeAnswers(t, srv, queries)
	srv.CloseAbrupt() // crash: no final snapshot, WAL tail only

	// Uninterrupted reference.
	refOpts := opts
	refOpts.DataDir = ""
	ref, err := New(initial, refOpts)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	for _, ops := range batches {
		if _, err := ref.Update(ops); err != nil {
			t.Fatal(err)
		}
	}
	want := probeAnswers(t, ref, queries)

	// The crash image: snapshot at epoch 2, wal-2.log with frames for
	// epochs 3..6. (Recoveries below run on copies, so holding this
	// store's lock on the original is fine.)
	store, err := persist.OpenStore(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	walPath := store.WALPath(0, snapAfter)
	base, frames, _, torn, err := persist.ReadWALFile(walPath, 0)
	if err != nil {
		t.Fatal(err)
	}
	if base != snapAfter || torn || len(frames) != len(batches)-snapAfter {
		t.Fatalf("crash image: base=%d torn=%v frames=%d", base, torn, len(frames))
	}

	// Kill points: just past the header (no frames), every frame
	// boundary, and the middle of every frame. The framing overhead and
	// header size are derived from the read-back offsets, not hardcoded.
	overhead := (frames[1].End - frames[0].End) - int64(len(frames[1].Payload))
	headerEnd := frames[0].End - int64(len(frames[0].Payload)) - overhead
	type killPoint struct {
		cut    int64
		intact int // frames surviving the cut
	}
	points := []killPoint{
		{headerEnd, 0},
		{headerEnd + (frames[0].End-headerEnd)/2, 0}, // mid first frame
	}
	for i, f := range frames {
		points = append(points, killPoint{f.End, i + 1})
		if i+1 < len(frames) {
			points = append(points, killPoint{f.End + (frames[i+1].End-f.End)/2, i + 1})
		}
	}

	for _, kp := range points {
		killDir := t.TempDir()
		copyTree(t, dir, killDir)
		if err := os.Truncate(filepath.Join(killDir, "shard-0", filepath.Base(walPath)), kp.cut); err != nil {
			t.Fatal(err)
		}
		kopts := opts
		kopts.DataDir = killDir
		rec, err := New(nil, kopts)
		if err != nil {
			t.Fatalf("cut %d: %v", kp.cut, err)
		}
		entries, epoch, ok := rec.Recovered()
		wantEpoch := uint64(snapAfter + kp.intact)
		if !ok || epoch != wantEpoch || entries == 0 {
			t.Fatalf("cut %d: recovered (%d,%d,%v), want epoch %d", kp.cut, entries, epoch, ok, wantEpoch)
		}
		// Re-apply the batches the cut lost (the client retry path) …
		for _, ops := range batches[epoch:] {
			if _, err := rec.Update(ops); err != nil {
				t.Fatal(err)
			}
		}
		// … drain repair, and demand bit-identical answers.
		awaitRepairDrain(t, rec)
		requireSameAnswers(t, "kill point", want, probeAnswers(t, rec, queries))
		rec.Close()
	}
}

// TestCrashRecoveryCrossShardTorn pins the cross-shard consistency
// point: when a crash leaves one shard's WAL a batch ahead of
// another's, recovery rolls every shard back to the newest batch
// durable everywhere — and truncates the over-long WAL on disk, so a
// second recovery agrees with the first.
func TestCrashRecoveryCrossShardTorn(t *testing.T) {
	initial := genGraphs(t, 24, 9)
	queries := testQueries(initial)
	dir := t.TempDir()
	opts := persistTestOptions(dir, 2)

	srv, err := New(initial, opts)
	if err != nil {
		t.Fatal(err)
	}
	batches := deterministicBatches(initial, 4)
	for _, ops := range batches {
		probeAnswers(t, srv, queries)
		if _, err := srv.Update(ops); err != nil {
			t.Fatal(err)
		}
	}
	srv.CloseAbrupt()

	// Cut shard 1's last frame: shard 0 now claims epoch 4, shard 1
	// only 3. (Close the inspection store before recovery — an open
	// store holds the directory's exclusive lock.)
	store, err := persist.OpenStore(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	_, frames, _, _, err := persist.ReadWALFile(store.WALPath(1, 0), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != 4 {
		t.Fatalf("shard 1 has %d frames", len(frames))
	}
	if err := os.Truncate(store.WALPath(1, 0), frames[2].End); err != nil {
		t.Fatal(err)
	}
	store.Close()

	rec, err := New(nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	_, epoch, ok := rec.Recovered()
	if !ok || epoch != 3 {
		t.Fatalf("recovered epoch %d, want 3 (newest batch durable on both shards)", epoch)
	}
	rec.CloseAbrupt()

	// The discarded shard-0 frame must be gone from disk: a second
	// recovery sees the same world.
	rec2, err := New(nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	_, epoch2, _ := rec2.Recovered()
	if epoch2 != 3 {
		t.Fatalf("second recovery epoch %d, want 3", epoch2)
	}
	// Re-apply the rolled-back batch; answers must match a reference
	// that applied all four.
	if _, err := rec2.Update(batches[3]); err != nil {
		t.Fatal(err)
	}
	refOpts := opts
	refOpts.DataDir = ""
	ref, err := New(initial, refOpts)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	for _, ops := range batches {
		if _, err := ref.Update(ops); err != nil {
			t.Fatal(err)
		}
	}
	awaitRepairDrain(t, rec2)
	requireSameAnswers(t, "cross-shard", probeAnswers(t, ref, queries), probeAnswers(t, rec2, queries))
	rec2.Close()
}

// TestSnapshotAutoTriggerAndNoWAL covers the automatic snapshot cadence
// and the snapshot-only (-nowal) durability mode, whose crash contract
// is "state as of the last snapshot".
func TestSnapshotAutoTriggerAndNoWAL(t *testing.T) {
	initial := genGraphs(t, 20, 11)
	queries := testQueries(initial)
	dir := t.TempDir()
	opts := persistTestOptions(dir, 2)
	opts.SnapshotEvery = 2
	opts.DisableWAL = true

	srv, err := New(initial, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Epochs 2 and 4 trigger asynchronous generations. Wait each one
	// out — the boot generation included — before the next batch:
	// back-to-back batches would otherwise legitimately skip a trigger
	// while the previous generation is still writing. A generation is
	// out once its epoch is published and its collector has released
	// snapMu, which it does only after publishing.
	awaitSnapshot := func(epoch uint64) *Stats {
		deadline := time.Now().Add(30 * time.Second)
		for {
			st, err := srv.Stats()
			if err != nil {
				t.Fatal(err)
			}
			if st.LastSnapshotEpoch == epoch && srv.snapMu.TryLock() {
				srv.snapMu.Unlock()
				return st
			}
			if time.Now().After(deadline) {
				t.Fatalf("auto snapshot never reached epoch %d (at %d)", epoch, st.LastSnapshotEpoch)
			}
			time.Sleep(time.Millisecond)
		}
	}
	batches := deterministicBatches(initial, 5)
	awaitSnapshot(0)
	for i, ops := range batches {
		probeAnswers(t, srv, queries)
		if _, err := srv.Update(ops); err != nil {
			t.Fatal(err)
		}
		if e := uint64(i + 1); e%2 == 0 {
			awaitSnapshot(e)
		}
	}
	st := awaitSnapshot(4)
	if st.SnapshotsWritten < 3 { // boot generation + the two auto triggers
		t.Fatalf("snapshots written: %d", st.SnapshotsWritten)
	}
	if st.WALBytes != 0 {
		t.Fatalf("WAL bytes %d with the WAL disabled", st.WALBytes)
	}
	srv.CloseAbrupt()

	// Recovery lands at the last generation: epoch 4, batch 5 lost.
	rec, err := New(nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	_, epoch, ok := rec.Recovered()
	if !ok || epoch != 4 {
		t.Fatalf("recovered epoch %d, want 4 (snapshot-only durability)", epoch)
	}
	ref, err := New(initial, Options{Shards: 2, Cache: opts.Cache})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	for _, ops := range batches[:4] {
		if _, err := ref.Update(ops); err != nil {
			t.Fatal(err)
		}
	}
	requireSameAnswers(t, "nowal", probeAnswers(t, ref, queries), probeAnswers(t, rec, queries))
}

// TestStatsOpsFields pins the /stats operability additions: monotonic
// uptime and build identification.
func TestStatsOpsFields(t *testing.T) {
	srv, err := New(genGraphs(t, 8, 1), Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	st1, err := srv.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st1.GoVersion != runtime.Version() {
		t.Fatalf("go version %q", st1.GoVersion)
	}
	if st1.ModuleVersion == "" {
		t.Fatal("empty module version")
	}
	if st1.PersistEnabled || st1.RecoveredEpoch != 0 {
		t.Fatalf("persistence fields set without a data dir: %+v", st1)
	}
	time.Sleep(5 * time.Millisecond)
	st2, err := srv.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st2.UptimeSec <= st1.UptimeSec || st1.UptimeSec < 0 {
		t.Fatalf("uptime not monotonic: %f then %f", st1.UptimeSec, st2.UptimeSec)
	}
}

// CloseAbrupt shuts the server down without the final snapshot — the
// crash-shaped shutdown: whatever the WAL and the last snapshot
// generation already made durable is all a subsequent boot recovers.
// Crash-recovery tests use it to exercise the WAL replay path
// deterministically.
func (s *Server) CloseAbrupt() { _ = s.closeImpl(false) }
