package router

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"gcplus/internal/cache"
	"gcplus/internal/changeplan"
	"gcplus/internal/core"
	"gcplus/internal/faultfs"
	"gcplus/internal/persist"
	"gcplus/internal/testutil"
)

// blockShard parks shard 0's worker on a job that waits for the
// returned release function, so admission and deadline tests can hold
// the server busy deterministically.
func blockShard(srv *Server) (release func()) {
	gate := make(chan struct{})
	srv.hosts[0].Enqueue(func() { <-gate })
	var once sync.Once
	return func() { once.Do(func() { close(gate) }) }
}

func TestAdmissionControlShedsQueries(t *testing.T) {
	initial := genGraphs(t, 20, 3)
	srv, err := New(initial, Options{Shards: 1, MaxInFlightQueries: 1, MaxInFlightUpdates: 1,
		pressureInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	q := testQueries(initial)[0]
	release := blockShard(srv)

	// Query A occupies the single admission slot while the shard is
	// blocked; B must be shed immediately rather than queue.
	started := make(chan struct{})
	finished := make(chan error, 1)
	go func() {
		close(started)
		_, err := subQ(srv, q)
		finished <- err
	}()
	<-started
	waitFor(t, func() bool { return inFlight(srv.querySem) == 1 })

	_, err = subQ(srv, q)
	var oe *OverloadError
	if !errors.As(err, &oe) || !IsOverload(err) {
		t.Fatalf("saturated query: %v, want OverloadError", err)
	}
	if oe.Kind != "query" || oe.Limit != 1 {
		t.Fatalf("overload error: %+v", oe)
	}

	// Same for the update path: A waits on the blocked shard's op
	// result holding the slot, B is shed.
	ops := []changeplan.Op{changeplan.DeleteOp(0)}
	updStarted := make(chan struct{})
	updFinished := make(chan error, 1)
	go func() {
		close(updStarted)
		_, err := srv.Update(ops)
		updFinished <- err
	}()
	<-updStarted
	waitFor(t, func() bool { return inFlight(srv.updateSem) == 1 })
	_, err = srv.Update([]changeplan.Op{changeplan.DeleteOp(1)})
	if !IsOverload(err) {
		t.Fatalf("saturated update: %v, want OverloadError", err)
	}

	release()
	if err := <-finished; err != nil {
		t.Fatalf("admitted query: %v", err)
	}
	if err := <-updFinished; err != nil {
		t.Fatalf("admitted update: %v", err)
	}

	st, err := srv.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.ShedQueries != 1 || st.ShedUpdates != 1 {
		t.Fatalf("shed counters: queries=%d updates=%d, want 1/1", st.ShedQueries, st.ShedUpdates)
	}
}

func inFlight(sem chan struct{}) int { return len(sem) }

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never became true")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestQueryDeadlineWhileShardBlocked(t *testing.T) {
	initial := genGraphs(t, 20, 3)
	srv, err := New(initial, Options{Shards: 1, pressureInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	q := testQueries(initial)[0]
	release := blockShard(srv)
	defer release()

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = srv.Query(ctx, cache.KindSub, q, 0)
	var ce *core.CancelError
	if !errors.As(err, &ce) {
		t.Fatalf("deadline query: %v, want CancelError", err)
	}
	if ce.Stage != "wait" && ce.Stage != "queue" {
		t.Fatalf("cancel stage %q, want wait or queue", ce.Stage)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("deadline return took %v: the front-end rode out the stall", d)
	}

	// The update admission checkpoint: an expired context is rejected
	// before anything is applied.
	expired, cancel2 := context.WithCancel(context.Background())
	cancel2()
	_, err = srv.UpdateCtx(expired, []changeplan.Op{changeplan.DeleteOp(0)})
	if !errors.As(err, &ce) || ce.Stage != "update" {
		t.Fatalf("expired update: %v, want CancelError{update}", err)
	}

	release()
	st, err := srv.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.DeadlineExceeded < 2 {
		t.Fatalf("deadline counter %d, want >= 2", st.DeadlineExceeded)
	}
	if n := st.deadlineByStage["update"]; n != 1 {
		t.Fatalf("update-stage deadline count %d, want 1", n)
	}
	// Epoch unchanged: the rejected update really applied nothing.
	if st.Epoch != 0 {
		t.Fatalf("epoch %d after rejected update, want 0", st.Epoch)
	}
}

// TestQueryTimeoutOption covers the server-level QueryTimeout (no caller
// context needed): the request 504s and the stage counter attributes it.
func TestQueryTimeoutOption(t *testing.T) {
	initial := genGraphs(t, 20, 3)
	srv, err := New(initial, Options{Shards: 1, QueryTimeout: 15 * time.Millisecond,
		pressureInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	release := blockShard(srv)
	defer release()

	_, err = subQ(srv, testQueries(initial)[0])
	var ce *core.CancelError
	if !errors.As(err, &ce) {
		t.Fatalf("timed-out query: %v, want CancelError", err)
	}
	release()
	// The shard eventually runs the abandoned job; draining keeps the
	// deferred Close from racing the counter check.
	waitFor(t, func() bool {
		st, err := srv.Stats()
		return err == nil && st.DeadlineExceeded >= 1
	})
}

// TestPressureLadder drives the degradation controller directly (ticker
// disabled): escalation on queue pressure, exact answers under
// cache-bypass, and dwell-gated stepwise de-escalation.
func TestPressureLadder(t *testing.T) {
	initial := genGraphs(t, 30, 7)
	srv, err := New(initial, Options{Shards: 1, pressureInterval: -1,
		Cache: &cache.Config{Capacity: 40, WindowSize: 5}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	q := testQueries(initial)[0]
	want, err := subQ(srv, q)
	if err != nil {
		t.Fatal(err)
	}

	// Fill the shard queue past the critical threshold while the worker
	// is parked, then evaluate: the controller must jump straight to
	// cache-bypass.
	release := blockShard(srv)
	fillDone := make(chan struct{})
	go func() {
		defer close(fillDone)
		for i := 0; i < srv.press.queueCrit; i++ {
			srv.hosts[0].Enqueue(func() {})
		}
	}()
	waitFor(t, func() bool { return srv.hosts[0].QueueLen() >= srv.press.queueCrit })
	base := time.Unix(1000, 0)
	srv.press.evaluate(base)
	if lvl := srv.press.Level(); lvl != DegradeCacheBypass {
		t.Fatalf("level %v under critical queue depth, want cache-bypass", lvl)
	}
	release()
	<-fillDone

	// Degraded serving stays exact and really bypasses the cache.
	got, err := subQ(srv, q)
	if err != nil {
		t.Fatal(err)
	}
	if !equalIDs(got.IDs, want.IDs) {
		t.Fatalf("cache-bypass answer %v, want %v", got.IDs, want.IDs)
	}
	if !got.PerShard[0].CacheBypassed {
		t.Fatal("query under cache-bypass did not set CacheBypassed")
	}

	st, err := srv.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.DegradationLevel != int(DegradeCacheBypass) || st.DegradationMode != "cache-bypass" {
		t.Fatalf("stats degradation: %d %q", st.DegradationLevel, st.DegradationMode)
	}

	// De-escalation: queue empty now, but each rung needs pressureDwell
	// consecutive calm evaluations.
	waitFor(t, func() bool { return srv.hosts[0].QueueLen() == 0 })
	step := func(n int) {
		for i := 0; i < n; i++ {
			base = base.Add(time.Second)
			srv.press.evaluate(base)
		}
	}
	step(pressureDwell - 1)
	if lvl := srv.press.Level(); lvl != DegradeCacheBypass {
		t.Fatalf("level %v before dwell elapsed, want cache-bypass", lvl)
	}
	step(1)
	if lvl := srv.press.Level(); lvl != DegradeCappedVerify {
		t.Fatalf("level %v after first dwell, want capped-verify", lvl)
	}
	step(pressureDwell)
	if lvl := srv.press.Level(); lvl != DegradeNone {
		t.Fatalf("level %v after second dwell, want none", lvl)
	}
	if s := srv.press.degradedSeconds(base); s <= 0 {
		t.Fatalf("degraded seconds %f, want > 0", s)
	}
}

// TestWALFailurePolicies pins the durability-gap contract for both
// policies: appends that fail after retries open a gap (fail-update
// surfaces it per batch, degrade-to-volatile acks and latches the
// alarm), the durable-epoch claim freezes, and a snapshot rotation
// heals the gap.
func TestWALFailurePolicies(t *testing.T) {
	for _, policy := range []string{WALPolicyFailUpdate, WALPolicyDegradeToVolatile} {
		t.Run(policy, func(t *testing.T) {
			initial := genGraphs(t, 16, 5)
			// After: 1 skips the boot segment's header write; every frame
			// append into the boot segment then fails. The rotated segment
			// (wal-<epoch>) has a different name and stays healthy.
			ffs := faultfs.New(persist.OSFS, 1, faultfs.Rule{
				ID: "boot-wal-writes", Op: faultfs.OpWrite, Path: "wal-0000000000000000", After: 1,
			})
			opts := persistTestOptions(t.TempDir(), 1)
			opts.WALPolicy = policy
			opts.Faults = &FaultInjection{FS: ffs}
			opts.pressureInterval = -1
			srv, err := New(initial, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			// Pin the retry latch so the gap's automatic healing snapshot
			// never races the assertions below; the manual Snapshot call
			// is the only healer in this test.
			srv.snapRetryPending.Store(true)

			res, err := srv.Update([]changeplan.Op{changeplan.DeleteOp(0)})
			if policy == WALPolicyFailUpdate {
				if err == nil || res == nil {
					t.Fatalf("fail-update: res=%v err=%v, want applied result plus durability error", res, err)
				}
				if !strings.Contains(err.Error(), "shard 0") {
					t.Fatalf("durability error does not name the shard: %v", err)
				}
			} else if err != nil {
				t.Fatalf("degrade-to-volatile: %v, want swallowed append failure", err)
			}
			// The batch applied in memory either way.
			if res.Applied != 1 || res.Epoch != 1 {
				t.Fatalf("batch result: %+v", res)
			}

			// Later batches cannot become durable through the gapped
			// segment: no append is attempted, and fail-update keeps
			// reporting the gap.
			res2, err2 := srv.Update([]changeplan.Op{changeplan.DeleteOp(1)})
			if policy == WALPolicyFailUpdate {
				if err2 == nil || !strings.Contains(err2.Error(), "durability gap") {
					t.Fatalf("gapped update error: %v", err2)
				}
			} else if err2 != nil {
				t.Fatal(err2)
			}
			if res2.Epoch != 2 {
				t.Fatalf("epoch %d, want 2", res2.Epoch)
			}

			st, err := srv.Stats()
			if err != nil {
				t.Fatal(err)
			}
			if st.WALVolatileShards != 1 {
				t.Fatalf("volatile shards %d, want 1 (gap open)", st.WALVolatileShards)
			}
			if st.DurableEpoch != 0 {
				t.Fatalf("durable epoch %d with the gap open, want 0", st.DurableEpoch)
			}
			if st.WALPolicy != policy {
				t.Fatalf("stats policy %q", st.WALPolicy)
			}

			// A snapshot generation rotates to a fresh segment and heals:
			// durability resumes at the generation's epoch.
			if err := srv.Snapshot(); err != nil {
				t.Fatalf("healing snapshot: %v", err)
			}
			st, err = srv.Stats()
			if err != nil {
				t.Fatal(err)
			}
			if st.WALVolatileShards != 0 || st.DurableEpoch != 2 {
				t.Fatalf("after heal: volatile=%d durable=%d, want 0/2", st.WALVolatileShards, st.DurableEpoch)
			}

			// Post-heal appends land in the rotated segment and advance
			// durability again.
			if _, err := srv.Update([]changeplan.Op{changeplan.DeleteOp(2)}); err != nil {
				t.Fatalf("post-heal update: %v", err)
			}
			st, err = srv.Stats()
			if err != nil {
				t.Fatal(err)
			}
			if st.DurableEpoch != 3 {
				t.Fatalf("post-heal durable epoch %d, want 3", st.DurableEpoch)
			}
			if len(ffs.Events()) == 0 {
				t.Fatal("no faults fired: the schedule missed the WAL writes")
			}
		})
	}
}

func TestUnknownWALPolicyRejected(t *testing.T) {
	_, err := New(genGraphs(t, 4, 1), Options{Shards: 1, WALPolicy: "retry-forever"})
	if err == nil || !strings.Contains(err.Error(), "WAL policy") {
		t.Fatalf("bad policy: %v", err)
	}
}

// TestCancellationLeavesCacheConsistent sweeps cancellation points
// through live queries — from before the shard job starts to deep in
// verification — and demands that (a) every outcome is either an exact
// answer or a CancelError and (b) the cache's index invariants hold
// after every cancellation.
func TestCancellationLeavesCacheConsistent(t *testing.T) {
	initial := genGraphs(t, 120, 13)
	srv, err := New(initial, Options{Shards: 1, pressureInterval: -1,
		Cache: &cache.Config{Capacity: 30, WindowSize: 4}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	queries := testQueries(initial)
	q := queries[0]
	want, err := subQ(srv, q)
	if err != nil {
		t.Fatal(err)
	}

	checkCache := func() {
		done := make(chan struct{})
		srv.hosts[0].Enqueue(func() {
			defer close(done)
			testutil.RequireCacheIndex(t, srv.hosts[0].Runtime().Cache())
		})
		<-done
	}

	cancelled := 0
	for i := 0; i < 60; i++ {
		// Mutate between probes so validation and repair churn runs
		// concurrently with the cancellation sweep.
		if i%10 == 5 {
			g := initial[i%len(initial)]
			if _, err := srv.Update([]changeplan.Op{changeplan.AddOp(g.Clone())}); err != nil {
				t.Fatal(err)
			}
			want, err = subQ(srv, q)
			if err != nil {
				t.Fatal(err)
			}
		}
		ctx, cancel := context.WithCancel(context.Background())
		if i == 0 {
			cancel() // deterministic floor: cancelled before the job runs
		} else {
			// Sweep the cancellation point across the query's lifetime.
			d := time.Duration(i) * 40 * time.Microsecond
			timer := time.AfterFunc(d, cancel)
			defer timer.Stop()
		}
		res, err := srv.Query(ctx, cache.KindSub, q, 0)
		switch {
		case err == nil:
			if !equalIDs(res.IDs, want.IDs) {
				t.Fatalf("probe %d: answer %v, want %v", i, res.IDs, want.IDs)
			}
		default:
			var ce *core.CancelError
			if !errors.As(err, &ce) {
				t.Fatalf("probe %d: %v, want CancelError", i, err)
			}
			cancelled++
			checkCache()
		}
		cancel()
	}
	if cancelled == 0 {
		t.Fatal("sweep produced no cancellations")
	}
	checkCache()
	// The server still serves exact answers after the abuse.
	got, err := subQ(srv, q)
	if err != nil {
		t.Fatal(err)
	}
	if !equalIDs(got.IDs, want.IDs) {
		t.Fatalf("post-sweep answer %v, want %v", got.IDs, want.IDs)
	}
	t.Logf("sweep: %d/60 probes cancelled", cancelled)
}

// TestHTTPOverloadAndDeadlineStatuses pins the wire mapping: 429 plus
// Retry-After for shed load, 504 for deadline-exceeded, and the
// degradation fields in /readyz.
func TestHTTPOverloadAndDeadlineStatuses(t *testing.T) {
	initial := genGraphs(t, 20, 3)
	// The 300ms deadline keeps the first request parked on the blocked
	// shard long enough for the overflow request to be shed.
	srv, err := New(initial, Options{Shards: 1, MaxInFlightQueries: 1,
		QueryTimeout: 300 * time.Millisecond, pressureInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	body := codecOf(t, testQueries(initial)[0])

	release := blockShard(srv)
	defer release()

	// Occupy the admission slot with a request that will ride its
	// deadline out against the blocked shard, then overflow it.
	firstDone := make(chan int, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/query", "text/plain", strings.NewReader(body))
		if err != nil {
			firstDone <- -1
			return
		}
		resp.Body.Close()
		firstDone <- resp.StatusCode
	}()
	waitFor(t, func() bool { return inFlight(srv.querySem) == 1 })
	resp, err := http.Post(ts.URL+"/query", "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("shed request: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if code := <-firstDone; code != http.StatusGatewayTimeout {
		t.Fatalf("deadline request: status %d, want 504", code)
	}
	// Stats-backed endpoints gather per-shard state through the job
	// queue; unblock the shard before probing them.
	release()

	// /readyz surfaces the degradation fields (level none here).
	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	ready := decodeJSON[map[string]any](t, resp.Body)
	resp.Body.Close()
	if _, ok := ready["degradation_mode"]; !ok {
		t.Fatalf("readyz body lacks degradation_mode: %v", ready)
	}

	// /metrics exposes the new resilience series.
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	exposition, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"gcplus_shed_total", "gcplus_deadline_exceeded_total",
		"gcplus_degradation_level", "gcplus_degraded_seconds_total",
		"gcplus_durable_epoch", "gcplus_wal_volatile_shards",
	} {
		if !strings.Contains(string(exposition), name) {
			t.Fatalf("metrics exposition lacks %s", name)
		}
	}
}

// TestHTTPOversizedBodiesUnderConcurrentLoad hammers the body-limit
// path from many goroutines while normal queries interleave: every
// oversized request must 413 and every normal one must succeed — no
// cross-request limiter state.
func TestHTTPOversizedBodiesUnderConcurrentLoad(t *testing.T) {
	initial := genGraphs(t, 20, 3)
	srv, err := New(initial, Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	small := codecOf(t, testQueries(initial)[0])
	big := strings.Repeat("# padding line to exceed the query body limit\n", maxQueryBodyBytes/46+2)

	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers*6)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < 3; r++ {
				resp, err := http.Post(ts.URL+"/query", "text/plain", strings.NewReader(big))
				if err != nil {
					errs <- err
					continue
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusRequestEntityTooLarge {
					errs <- fmt.Errorf("worker %d: oversized status %d", w, resp.StatusCode)
				}
				resp, err = http.Post(ts.URL+"/query", "text/plain", strings.NewReader(small))
				if err != nil {
					errs <- err
					continue
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("worker %d: normal status %d", w, resp.StatusCode)
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestHTTPMalformedOpMidBatchAtomicity posts a batch whose second op is
// malformed: decoding rejects the whole batch before anything executes,
// so the epoch and the dataset stay untouched.
func TestHTTPMalformedOpMidBatchAtomicity(t *testing.T) {
	initial := genGraphs(t, 10, 2)
	srv, err := New(initial, Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	addBody := codecOf(t, initial[0].Clone())
	payload := fmt.Sprintf(`{"ops":[{"op":"ADD","graph":%q},{"op":"UA","id":2},{"op":"DEL","id":0}]}`, addBody)
	resp, err := http.Post(ts.URL+"/update", "application/json", strings.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed mid-batch op: status %d, want 400", resp.StatusCode)
	}
	st, err := srv.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Epoch != 0 || st.LiveGraphs != 10 {
		t.Fatalf("rejected batch mutated state: epoch=%d live=%d", st.Epoch, st.LiveGraphs)
	}
}
