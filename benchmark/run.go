package main

// One run of one workload: set-up (several times), warm-up, the timed
// phase, the write tail or crash recovery, the audit and — traced runs
// only — the layer ladder.

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"gcplus"
)

type runConfig struct {
	w       workloadSpec // already scaled
	sc      scale
	seed    int64
	seconds int
	trace   bool
	outDir  string
	log     io.Writer // progress and the human-readable report
}

// metric is one reported number. Samples and Beyond qualify percentiles:
// how many samples the value comes from and how many lie beyond it.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
	Beyond  int     `json:"beyond,omitempty"`
}

// report is what a run writes to <out>/<workload>.json.
type report struct {
	Header     header            `json:"header"`
	Workload   string            `json:"workload"`
	Why        string            `json:"why"`
	Metrics    map[string]metric `json:"metrics"`
	AnswersFNV string            `json:"answers_fnv,omitempty"`
	Correct    bool              `json:"correct"`
	Attempted  int               `json:"attempted"`
	Failed     int               `json:"failed"`
	// Shed and DeadlineExceeded are the parts of Failed that were admission
	// sheds (429) and expired deadlines (504) in the warm-up and timed phases.
	Shed             int      `json:"shed"`
	DeadlineExceeded int      `json:"deadline_exceeded"`
	Audited          int      `json:"audited"`
	Problems         []string `json:"problems,omitempty"`
	// Counts are the exact single-client counts of the ladder's core and
	// subiso rungs; equal seeds must reproduce them exactly.
	Counts map[string]float64 `json:"counts,omitempty"`
}

// stack is a live system under test plus the directory it persists to.
type stack struct {
	tgt target
	srv *gcplus.Server
	dir string
}

func (c *runConfig) newStack(in *inputs, dir string) (*stack, error) {
	opts := serverOptions(shards, c.w.transport, dir)
	if c.w.http {
		t, err := newHTTPTarget(in, opts, clients)
		if err != nil {
			return nil, err
		}
		return &stack{tgt: t, srv: t.srv, dir: dir}, nil
	}
	t, err := newServerTarget(in, opts)
	if err != nil {
		return nil, err
	}
	return &stack{tgt: t, srv: t.srv, dir: dir}, nil
}

// dataDir names a data directory under tmp for a durable workload's server
// (the measured stack, a crash image, a ladder rung); others get none.
func (c *runConfig) dataDir(tmp, name string) string {
	if !c.w.durable {
		return ""
	}
	return filepath.Join(tmp, name)
}

func runWorkload(c runConfig) (*report, error) {
	rep := &report{
		Header:   newHeader(c),
		Workload: c.w.name, Why: c.w.why,
		Metrics: map[string]metric{},
	}
	tmp, err := os.MkdirTemp(c.outDir, "tmp-"+c.w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	// Set-up: input generation + server start + warm-up, done several
	// times so setup_s is a median; the last one is the stack measured.
	repeats := setupRepeats
	if c.trace {
		repeats = 1
	}
	var (
		in      *inputs
		st      *stack
		loop    *loopState
		warm    *phaseResult
		setupNS []float64
	)
	for i := 0; i < repeats; i++ {
		if st != nil {
			if err := st.tgt.Close(); err != nil {
				return nil, fmt.Errorf("closing set-up %d: %w", i-1, err)
			}
			// Collect the discarded set-up now, so peak RSS does not
			// depend on when the collector would have got round to it.
			in, st, loop, warm = nil, nil, nil, nil
			runtime.GC()
		}
		t0 := time.Now()
		if in, err = generateInputs(c.w, c.sc, c.seed, c.seconds); err != nil {
			return nil, err
		}
		if st, err = c.newStack(in, c.dataDir(tmp, fmt.Sprintf("data%d", i))); err != nil {
			return nil, err
		}
		loop = &loopState{w: c.w, in: in, tgt: st.tgt, seed: c.seed, stride: max(1, in.slots/(4*c.sc.auditMax))}
		warm = loop.run(0, c.w.warmup, time.Time{}, false)
		setupNS = append(setupNS, float64(time.Since(t0)))
	}
	defer func() {
		if st != nil {
			st.tgt.Close()
		}
	}()
	rep.Header.Slots, rep.Header.Warmup, rep.Header.StreamDigest = in.slots, c.w.warmup, fmt.Sprintf("%016x", in.digest)
	rep.Header.Server = resolvedOptions(c.w, st.srv)

	// Timed phase.
	measure := time.Duration(c.seconds) * time.Second
	if c.trace {
		measure /= 4 // the ladder takes the rest of a traced run
	}
	fmt.Fprintf(c.log, "%s: timed phase, %v, %d clients, %d shards\n", c.w.name, measure, clients, shards)
	timed := loop.run(c.w.warmup, in.slots, time.Now().Add(measure), true)
	if timed.exhausted {
		rep.Problems = append(rep.Problems, "the request stream ran out before the deadline; raise ratePerSec")
	}
	acked := append(warm.acked, timed.acked...)
	records := timed.records
	attempted := warm.attempted + timed.attempted
	failed := warm.failed + timed.failed
	rep.Problems = append(rep.Problems, warm.failures...)
	rep.Problems = append(rep.Problems, timed.failures...)

	updateNS := timed.updateNS
	var recoveryNS []float64
	if !c.trace {
		// Read-only workloads measure updates after the timed phase, so
		// the read numbers stay read-only (README "update_* and
		// recovery_s on read-only workloads").
		if c.w.stream == streamChurn {
			more, err := c.alignCrashImage(loop, st, acked)
			acked = append(acked, more...)
			attempted += len(more)
			if err != nil {
				failed++
				rep.Problems = append(rep.Problems, "aligning the crash image: "+err.Error())
			}
		} else {
			tail := c.writeTail(loop)
			updateNS = tail.updateNS
			acked = append(acked, tail.acked...)
			records = append(records, tail.records...)
			attempted += tail.attempted
			failed += tail.failed
			rep.Problems = append(rep.Problems, tail.failures...)
		}
	}
	rssMB := peakRSSMB()
	// The crash image is the data directory as it is while the server is
	// still live: no graceful flush. The server is then closed before any
	// recovery is timed — the server a recovery replaces is gone, and left
	// open its background repair of the last batches would share the two
	// cores with the first few recoveries.
	image := ""
	if !c.trace && c.w.durable {
		image = filepath.Join(tmp, "crash-image")
		if err := copyDir(st.dir, image); err != nil {
			return nil, fmt.Errorf("taking the crash image: %w", err)
		}
	}
	err = st.tgt.Close()
	st = nil
	if err != nil {
		failed++
		rep.Problems = append(rep.Problems, "close: "+err.Error())
	}
	if !c.trace {
		for i := 0; i < c.w.recoveries; i++ {
			d, recs, err := c.recoverOnce(in, image, tmp, i, uint64(len(acked)))
			if err != nil {
				failed++
				rep.Problems = append(rep.Problems, "recovery: "+err.Error())
				continue
			}
			attempted++
			recoveryNS = append(recoveryNS, float64(d))
			records = append(records, recs...)
		}
		fmt.Fprintf(c.log, "%s: recovery samples (ns): %.0f\n", c.w.name, recoveryNS)
	}
	fmt.Fprintf(c.log, "%s: auditing %d answers\n", c.w.name, len(records))

	// Audit.
	au := auditAnswers(in, records, acked, c.sc.auditMax+c.w.recoveries+tailProbes)
	rep.Audited = au.checked
	failed += au.mismatches
	attempted += au.checked
	rep.Problems = append(rep.Problems, au.messages...)
	if c.w.fnvPrefix > 0 {
		if timed.fnvSlots == c.w.fnvPrefix {
			rep.AnswersFNV = fmt.Sprintf("%016x", timed.fnv)
		} else {
			rep.AnswersFNV = fmt.Sprintf("incomplete (%d of %d slots)", timed.fnvSlots, c.w.fnvPrefix)
		}
	}

	// End-to-end metrics.
	set := func(name string, v float64, samples, beyond int) {
		if samples > 0 { // a traced run skips the write tail and the recoveries
			rep.Metrics[name] = metric{Value: v, Unit: unitOf(name), Samples: samples, Beyond: beyond}
		}
	}
	setPct := func(name string, sorted []int64, p float64) {
		v, beyond := percentile(sorted, p)
		set(name, float64(v)/1e6, len(sorted), beyond)
	}
	set("setup_s", median(setupNS)/1e9, len(setupNS), 0)
	if n := len(timed.windows); n >= 3 {
		// Medians over the phase's one-second windows (see `window`).
		counts, p50s, p99s := make([]float64, n), make([]float64, n), make([]float64, n)
		beyond := len(timed.queryNS)
		for i, ws := range timed.windows {
			counts[i], p50s[i], p99s[i] = float64(ws.count), float64(ws.p50), float64(ws.p99)
			beyond = min(beyond, ws.beyond99)
		}
		set("qps", median(counts)/window.Seconds(), len(timed.queryNS), 0)
		set("query_p50_ms", median(p50s)/1e6, len(timed.queryNS), 0)
		set("query_p99_ms", median(p99s)/1e6, len(timed.queryNS), beyond)
	} else { // too short to cut up: the whole phase at once
		set("qps", float64(len(timed.queryNS))/timed.elapsed.Seconds(), len(timed.queryNS), 0)
		setPct("query_p50_ms", timed.queryNS, 0.50)
		setPct("query_p99_ms", timed.queryNS, 0.99)
	}
	setPct("update_p50_ms", updateNS, 0.50)
	setPct("update_p99_ms", updateNS, 0.99)
	set("recovery_s", median(recoveryNS)/1e9, len(recoveryNS), 0)
	set("peak_rss_mb", rssMB, 1, 0)

	if c.trace {
		lad, err := runLadder(c, in, timed)
		if err != nil {
			return nil, err
		}
		for k, v := range lad.metrics {
			rep.Metrics[k] = v
		}
		rep.Counts = lad.counts
		failed += lad.mismatches
		attempted += lad.compared
		rep.Problems = append(rep.Problems, lad.problems...)
		if err := lad.spans.flush(filepath.Join(c.outDir, c.w.name+".spans.jsonl")); err != nil {
			return nil, err
		}
	}

	rep.Attempted, rep.Failed = attempted, failed
	rep.Shed, rep.DeadlineExceeded = warm.shed+timed.shed, warm.deadline+timed.deadline
	rep.Correct = failed == 0
	return rep, nil
}

// tailProbes is the number of queries issued after the write tail and
// audited at the final epoch: the tail's updates must be visible.
const tailProbes = 20

// writeTail applies the pre-generated batches from tailWriters of the
// closed-loop clients, each timing its own submit→ack, then probes the
// result. How many writers is chosen per boundary, for a steady p99. On the
// facade a single writer's slow mode (a scheduling stall behind repair work)
// holds 0.5–1 % of the batches, which puts p99 on the knee between two modes:
// it moved ±10–20 % between runs. Two writers meet on the update path's
// writer lock, as two clients of churn_durable can, and p99 sits inside that
// wait, within ±2 %. Over HTTP it is the other way round: with two writers
// the batches caught by a collection cycle are about 1 % and p99 swung
// between 2 and 4 ms; with one writer it holds ±5 %.
func (c *runConfig) writeTail(loop *loopState) *phaseResult {
	batches := loop.in.batches
	fmt.Fprintf(c.log, "%s: write tail, %d batches\n", c.w.name, len(batches))
	logs := make([]*clientLog, c.w.tailWriters)
	var next atomic.Int64
	var wg sync.WaitGroup
	for cl := range logs {
		logs[cl] = &clientLog{updateNS: make([]int64, 0, len(batches))}
		wg.Add(1)
		go func(cl int, l *clientLog) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(batches) {
					return
				}
				t0 := time.Now()
				a, err := loop.tgt.Update(cl, &batches[i], nil)
				d := time.Since(t0)
				l.attempted++
				if err != nil {
					l.fail(err, "tail update", i)
					continue
				}
				l.acked = append(l.acked, ackedBatch{epoch: a.epoch, b: &batches[i], ids: a.ids})
				l.updateNS = append(l.updateNS, int64(d))
			}
		}(cl, logs[cl])
	}
	wg.Wait()
	res := &phaseResult{}
	for _, l := range logs {
		res.merge(l)
	}
	slices.Sort(res.updateNS)
	l := &res.clientLog
	for i := 0; i < tailProbes; i++ {
		slot := i * (loop.in.slots / tailProbes)
		r := loop.in.req(slot)
		a, err := loop.tgt.Query(0, r, true)
		l.attempted++
		if err != nil {
			l.fail(err, "tail probe", slot)
			continue
		}
		l.records = append(l.records, auditRecord{slot: slot, req: r, epoch: a.epoch, ids: slices.Clone(a.ids)})
	}
	return res
}

// crashImageTail is the number of batches in the WAL behind the newest
// snapshot when the crash image is taken.
const crashImageTail = 128

// alignCrashImage submits further batches, untimed, until exactly
// crashImageTail of them are newer than the last snapshot. The server
// snapshots every 256 batches on its own, so where the timed phase happens
// to stop decides how much WAL a recovery replays — anything from 0 to 255
// batches; pinning the tail makes recovery_s the cost of one snapshot load
// plus 128 batches of replay on every run.
func (c *runConfig) alignCrashImage(loop *loopState, st *stack, done []ackedBatch) ([]ackedBatch, error) {
	// A client that claimed a batch's slot as the deadline passed left that
	// batch unsubmitted, possibly with a later one already applied: resume
	// with exactly the batches nobody submitted, in order.
	submitted := make(map[*batch]bool, len(done))
	for _, a := range done {
		submitted[a.b] = true
	}
	var acked []ackedBatch
	for k := 0; ; k++ {
		if k < len(loop.in.batches) && submitted[&loop.in.batches[k]] {
			continue
		}
		stats, err := st.srv.Stats()
		if err != nil {
			return acked, err
		}
		if stats.Epoch-stats.LastSnapshotEpoch == crashImageTail {
			return acked, nil
		}
		if k >= len(loop.in.batches) {
			return acked, fmt.Errorf("ran out of batches at epoch %d with the last snapshot at %d", stats.Epoch, stats.LastSnapshotEpoch)
		}
		b := &loop.in.batches[k]
		a, err := loop.tgt.Update(0, b, nil)
		if err != nil {
			return acked, err
		}
		acked = append(acked, ackedBatch{epoch: a.epoch, b: b, ids: a.ids})
	}
}

// recoverOnce measures how long a replacement server takes to be as useful
// as the one it replaces. A durable workload recovers from a copy of the
// crash image, which restores dataset and cache: it must come back at
// the last acknowledged epoch, and the clock stops when its first query
// answers. A workload without a data directory has only the initial dataset
// to restart from: it rebuilds and re-runs the warm-up, which is what it
// takes to get the cache back.
func (c *runConfig) recoverOnce(in *inputs, image, tmp string, i int, lastAcked uint64) (time.Duration, []auditRecord, error) {
	// Every recovery starts from a collected heap, as a fresh process would,
	// not from whatever the one before it left for the collector.
	runtime.GC()
	if !c.w.durable {
		t0 := time.Now()
		st, err := c.newStack(in, "")
		if err != nil {
			return 0, nil, err
		}
		defer st.tgt.Close()
		loop := &loopState{w: c.w, in: in, tgt: st.tgt, seed: c.seed, stride: 1}
		warm := loop.run(0, c.w.warmup, time.Time{}, false)
		d := time.Since(t0)
		if warm.failed > 0 {
			return 0, nil, fmt.Errorf("re-warm after restart: %d requests failed: %v", warm.failed, warm.failures)
		}
		return d, nil, nil
	}
	dir := filepath.Join(tmp, fmt.Sprintf("crash%d", i))
	if err := copyDir(image, dir); err != nil {
		return 0, nil, err
	}
	defer os.RemoveAll(dir)
	r := in.req(i)
	t0 := time.Now()
	st, err := c.newStack(in, dir)
	if err != nil {
		return 0, nil, err
	}
	defer st.tgt.Close()
	a, err := st.tgt.Query(0, r, true)
	d := time.Since(t0)
	if err != nil {
		return 0, nil, err
	}
	if _, epoch, ok := st.srv.Recovered(); !ok || epoch != lastAcked {
		return 0, nil, fmt.Errorf("crash image recovered=%v at epoch %d, last acknowledged epoch is %d", ok, epoch, lastAcked)
	}
	if a.epoch != lastAcked {
		return 0, nil, fmt.Errorf("first query after recovery reports epoch %d, want %d", a.epoch, lastAcked)
	}
	return d, []auditRecord{{slot: i, req: r, epoch: a.epoch, ids: slices.Clone(a.ids)}}, nil
}

// copyDir copies a directory tree of regular files.
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		to := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(to, 0o755)
		}
		data, err := os.ReadFile(path)
		if os.IsNotExist(err) {
			return nil // a snapshot rotation removed it mid-copy: a crash could see that too
		}
		if err != nil {
			return err
		}
		return os.WriteFile(to, data, 0o644)
	})
}
