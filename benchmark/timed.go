package main

// The timed run: a closed loop of `clients` goroutines claiming stream
// slots from one counter until the deadline. It records exact per-request
// latencies in preallocated per-client slices and no spans, so tracing
// costs the end-to-end numbers nothing by construction.

import (
	"errors"
	"fmt"
	"hash/fnv"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"gcplus"
)

// auditRecord is one sampled answer kept for the oracle.
type auditRecord struct {
	slot  int
	req   *request
	epoch uint64
	ids   []int
}

// ackedBatch is one entry of the benchmark's op log: the benchmark is the
// only writer, so the acknowledged batches in epoch order are the
// dataset's whole history.
type ackedBatch struct {
	epoch uint64
	b     *batch
	ids   []int
}

// loopState is what the clients of one phase share.
type loopState struct {
	w      workloadSpec
	in     *inputs
	tgt    target
	seed   int64
	stride int // audit sampling: about one slot in stride is kept

	next atomic.Int64 // next slot to claim
}

// clientLog is what a phase recorded: one per client while the phase runs,
// merged into one when it ends.
type clientLog struct {
	queryNS, updateNS []int64
	records           []auditRecord
	acked             []ackedBatch
	fnv               uint64
	fnvSlots          int
	failures          []string // first few per client, for the report
	failed            int
	shed, deadline    int // the parts of failed that were 429s and 504s
	attempted         int
	exhausted         bool // a client left the loop because the stream ran out
	// windowEnd[i] is how many of this client's queryNS samples completed in
	// windows 0..i of the phase (per client; not merged).
	windowEnd []int
}

func (l *clientLog) merge(o *clientLog) {
	l.queryNS = append(l.queryNS, o.queryNS...)
	l.updateNS = append(l.updateNS, o.updateNS...)
	l.records = append(l.records, o.records...)
	l.acked = append(l.acked, o.acked...)
	l.fnv ^= o.fnv
	l.fnvSlots += o.fnvSlots
	l.failures = append(l.failures, o.failures...)
	l.failed += o.failed
	l.shed += o.shed
	l.deadline += o.deadline
	l.attempted += o.attempted
	l.exhausted = l.exhausted || o.exhausted
}

// phaseResult is the clients' logs merged, latencies sorted ascending.
type phaseResult struct {
	clientLog
	elapsed time.Duration
	windows []windowStat // the complete windows of the phase, in order
	mem     memDelta
}

// window is the length of the slices the timed phase is cut into. qps and
// the query percentiles are reported as the median over these windows, so a
// disturbance from outside the process — this is a shared two-core box —
// that lasts a few seconds costs a few windows, not the run's number.
const window = time.Second

// windowStat is one window's queries: how many completed in it, and the
// percentiles of their latencies.
type windowStat struct {
	count    int
	p50, p99 int64
	beyond99 int
}

// windowStats cuts the clients' samples into the phase's complete windows.
func windowStats(logs []*clientLog, elapsed time.Duration) []windowStat {
	stats := make([]windowStat, int(elapsed/window))
	var buf []int64
	for i := range stats {
		buf = buf[:0]
		for _, l := range logs {
			lo, hi := 0, len(l.queryNS)
			if i > 0 && i-1 < len(l.windowEnd) {
				lo = l.windowEnd[i-1]
			} else if i > 0 {
				lo = hi
			}
			if i < len(l.windowEnd) {
				hi = l.windowEnd[i]
			}
			buf = append(buf, l.queryNS[lo:hi]...)
		}
		slices.Sort(buf)
		st := windowStat{count: len(buf)}
		st.p50, _ = percentile(buf, 0.50)
		st.p99, st.beyond99 = percentile(buf, 0.99)
		stats[i] = st
	}
	return stats
}

// memDelta is runtime.MemStats over the timed phase.
type memDelta struct {
	mallocs, bytes uint64
	gcCycles       uint32
	gcPauseNS      uint64
}

func (s *loopState) isSample(slot int) bool {
	x := uint64(s.seed)*0x9e3779b97f4a7c15 + uint64(slot)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	return x%uint64(s.stride) == 0
}

// run drives slots [from, to) until the deadline (zero: no deadline). With
// record false it is the warm-up: requests are executed and checked for
// errors but nothing is timed or kept.
func (s *loopState) run(from, to int, deadline time.Time, record bool) *phaseResult {
	s.next.Store(int64(from))
	logs := make([]*clientLog, clients)
	for c := range logs {
		logs[c] = &clientLog{}
		if record {
			// Preallocated for the whole stream: the measured loop never
			// grows a latency slice.
			logs[c].queryNS = make([]int64, 0, to-from)
			logs[c].updateNS = make([]int64, 0, (to-from)/updateEvery+1)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	var wg sync.WaitGroup
	wg.Add(clients)
	for c := 0; c < clients; c++ {
		go func(c int) {
			defer wg.Done()
			s.client(c, logs[c], to, start, deadline, record)
		}(c)
	}
	wg.Wait()
	res := &phaseResult{elapsed: time.Since(start)}
	runtime.ReadMemStats(&after)
	if record {
		res.windows = windowStats(logs, res.elapsed)
	}
	res.mem = memDelta{
		mallocs: after.Mallocs - before.Mallocs, bytes: after.TotalAlloc - before.TotalAlloc,
		gcCycles: after.NumGC - before.NumGC, gcPauseNS: after.PauseTotalNs - before.PauseTotalNs,
	}
	for _, l := range logs {
		res.merge(l)
	}
	slices.Sort(res.queryNS)
	slices.Sort(res.updateNS)
	return res
}

func (s *loopState) client(c int, l *clientLog, to int, start, deadline time.Time, record bool) {
	fnvFrom, fnvTo := s.w.warmup, s.w.warmup+s.w.fnvPrefix
	for {
		slot := int(s.next.Add(1)) - 1
		if slot >= to {
			l.exhausted = true
			return
		}
		if s.w.stream == streamChurn && slot%updateEvery == 0 {
			b := &s.in.batches[slot/updateEvery]
			t0 := time.Now()
			if !deadline.IsZero() && t0.After(deadline) {
				return
			}
			a, err := s.tgt.Update(c, b, nil)
			d := time.Since(t0)
			l.attempted++
			if err != nil {
				l.fail(err, "update", slot)
				// An unacknowledged batch leaves the op log incomplete;
				// the audit reports the gap.
			} else {
				l.acked = append(l.acked, ackedBatch{epoch: a.epoch, b: b, ids: a.ids})
				if record {
					l.updateNS = append(l.updateNS, int64(d))
				}
			}
		}
		r := s.in.req(slot)
		inFNV := record && slot >= fnvFrom && slot < fnvTo
		sample := record && s.isSample(slot)
		t0 := time.Now()
		if !deadline.IsZero() && t0.After(deadline) {
			return
		}
		a, err := s.tgt.Query(c, r, inFNV || sample)
		d := time.Since(t0)
		l.attempted++
		if err != nil {
			l.fail(err, "query", slot)
			continue
		}
		if !record {
			continue
		}
		for w := int(t0.Add(d).Sub(start) / window); len(l.windowEnd) < w; {
			l.windowEnd = append(l.windowEnd, len(l.queryNS)) // this sample opens a later window
		}
		l.queryNS = append(l.queryNS, int64(d))
		if inFNV {
			l.fnv ^= answerHash(slot-fnvFrom, a.ids)
			l.fnvSlots++
		}
		if sample {
			l.records = append(l.records, auditRecord{slot: slot, req: r, epoch: a.epoch, ids: slices.Clone(a.ids)})
		}
	}
}

func (l *clientLog) fail(err error, what string, slot int) {
	l.failed++
	var se *statusError
	switch {
	case gcplus.IsOverload(err), errors.As(err, &se) && se.code == 429:
		l.shed++
	case errors.As(err, &se) && se.code == 504:
		l.deadline++
	}
	if len(l.failures) < 5 {
		l.failures = append(l.failures, fmt.Sprintf("%s at slot %d: %v", what, slot, err))
	}
}

// answerHash digests one answer: FNV-1a over the slot's position in the
// measured stream and the sorted ids. Hashes are XORed, so the digest does
// not depend on which client answered what.
func answerHash(pos int, ids []int) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	put(uint64(pos))
	for _, id := range ids {
		put(uint64(id))
	}
	return h.Sum64()
}
