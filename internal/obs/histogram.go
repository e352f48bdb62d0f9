// Package obs is GC+'s dependency-free observability core: log-bucketed
// latency histograms with O(1) concurrent recording and exact-bound
// percentile extraction, monotonic counters, gauges, and a registry that
// renders the Prometheus text exposition format.
//
// The paper's evaluation is built on per-stage measurement (Figures 4–6
// report per-stage means); a serving system additionally needs tail
// latencies and live gauges. The histogram here is the serving layer's
// single latency representation (/metrics, the slow-query log).
package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// Histogram bucketing: values are nanoseconds bucketed log-linearly —
// 2^subBits sub-buckets per power of two, so every bucket's width is at
// most 1/2^subBits (12.5%) of its lower bound. Values below 2^subBits ns
// get exact unit buckets. The scheme is the HdrHistogram layout reduced
// to its core: index arithmetic only (one bits.Len64, no floats, no
// branches on magnitude tables), O(1) per record.
const (
	subBits    = 3
	subBuckets = 1 << subBits // 8
	// numBuckets covers the full non-negative int64 nanosecond range:
	// 8 unit buckets + 8 sub-buckets per octave for octaves 3..62.
	numBuckets = subBuckets + (63-subBits)*subBuckets
)

// bucketIndex maps a nanosecond value to its bucket.
func bucketIndex(v uint64) int {
	if v < subBuckets {
		return int(v)
	}
	o := bits.Len64(v) - 1 // floor(log2 v), ≥ subBits
	sub := (v >> (uint(o) - subBits)) & (subBuckets - 1)
	return subBuckets + (o-subBits)*subBuckets + int(sub)
}

// bucketUpperNS returns the largest nanosecond value the bucket holds —
// the exact bound Quantile reports.
func bucketUpperNS(idx int) uint64 {
	if idx < subBuckets {
		return uint64(idx)
	}
	block := uint(idx-subBuckets) / subBuckets
	sub := uint64(idx-subBuckets) % subBuckets
	return (subBuckets+sub+1)<<block - 1
}

// Histogram is a fixed-size log-bucketed latency histogram. Recording is
// a single atomic add per bucket plus one for the running sum — O(1),
// allocation-free, and safe for concurrent use (shard owner goroutines
// and benchmark clients record into the same histogram a scrape reads).
//
// Reads (Count, Quantile) are lock-free snapshots of the
// atomics; under concurrent recording the bucket counts, total count and
// sum may each lag by a handful of in-flight observations, which is the
// usual — and acceptable — scrape-time skew of live counters.
type Histogram struct {
	counts [numBuckets]atomic.Int64
	count  atomic.Int64
	sumNS  atomic.Int64
	// Exemplars: one slot per exposition bucket, holding the observed
	// value (ns) and the trace id of the most recent trace-sampled
	// observation that landed there. Attach-only (SetExemplar), read by
	// the exposition writer.
	exVal [promSlots]atomic.Uint64
	exID  [promSlots]atomic.Uint64
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram { return &Histogram{} }

// Observe records one duration. Negative durations clamp to zero.
func (h *Histogram) Observe(d time.Duration) {
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	h.counts[bucketIndex(uint64(ns))].Add(1)
	h.count.Add(1)
	h.sumNS.Add(ns)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Quantile returns the q-th quantile (0 ≤ q ≤ 1) in seconds, as an
// exact bucket bound: the true quantile value v satisfies
// lower(bucket) ≤ v ≤ returned bound, so the reported figure is never
// below the true value by more than one bucket width (≤ 12.5% of the
// value).
//
// Edge cases are pinned: an empty histogram yields 0 for every q; q
// outside (0, 1) clamps (q ≤ 0 → minimum observation's bound, q ≥ 1 →
// maximum's); a NaN q reads as 1 (the max) — the result is always a
// finite, non-negative bucket bound, so no caller can leak NaN into
// /stats JSON or the Prometheus exposition through this path.
func (h *Histogram) Quantile(q float64) float64 {
	// Rank against the sum of bucket counts, not h.count: under
	// concurrent recording the two can differ transiently, and ranking
	// against the buckets themselves keeps the walk self-consistent.
	var total int64
	var snap [numBuckets]int64
	for i := range snap {
		snap[i] = h.counts[i].Load()
		total += snap[i]
	}
	if total == 0 {
		return 0
	}
	// NaN fails every comparison, so test it explicitly — a bare
	// clamp pair would let it through to the int64 conversion below,
	// whose result for NaN is implementation-defined.
	if math.IsNaN(q) || q > 1 {
		q = 1
	}
	if q < 0 {
		q = 0
	}
	rank := int64(q*float64(total) + 0.9999999999)
	if rank < 1 {
		rank = 1
	}
	if rank > total {
		rank = total
	}
	var cum int64
	for i := range snap {
		cum += snap[i]
		if cum >= rank {
			return float64(bucketUpperNS(i)) / float64(time.Second)
		}
	}
	return float64(bucketUpperNS(numBuckets-1)) / float64(time.Second)
}

// Exposition bucket ladder: the fine internal buckets would make every
// scrape carry ~500 series per histogram, so the Prometheus rendering
// coarsens to one cumulative bucket per power of two from 128ns to ~34s
// (29 bounds plus +Inf). The fine octave sub-buckets align exactly with
// these bounds, so no observation is ever attributed to the wrong
// exposition bucket.
const (
	promMinExp = 7  // 2^7 ns = 128ns
	promMaxExp = 35 // 2^35 ns ≈ 34.36s
	// promSlots is one exemplar slot per exposition bucket: the 29
	// finite bounds plus +Inf.
	promSlots = promMaxExp - promMinExp + 2
)

// SetExemplar cites traceID as the exemplar for the exposition bucket a
// d-long observation lands in — the /metrics → /debug/traces bridge: an
// operator who spots a suspect bucket follows its exemplar's trace id
// to a full trace. Attach-only: callers record the duration through
// their existing Observe path; SetExemplar never touches the counts.
// Last writer per bucket wins, so each bucket cites a recent
// representative. A zero traceID is ignored.
func (h *Histogram) SetExemplar(d time.Duration, traceID uint64) {
	if h == nil || traceID == 0 {
		return
	}
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	// Smallest exp with 2^exp > ns is bits.Len64(ns); clamping covers
	// values below the first bound and at-or-above the last (+Inf).
	slot := bits.Len64(uint64(ns)) - promMinExp
	if slot < 0 {
		slot = 0
	}
	if slot > promSlots-1 {
		slot = promSlots - 1
	}
	// Two independent stores: a concurrent writer to the same slot can
	// transiently pair one observation's value with another's id, but
	// both came from the same bucket, so the exemplar stays in range.
	h.exVal[slot].Store(uint64(ns))
	h.exID[slot].Store(traceID)
}

// exemplar returns the slot's exemplar trace id and value (seconds);
// ok is false when the slot never received one.
func (h *Histogram) exemplar(slot int) (traceID uint64, valSec float64, ok bool) {
	if slot < 0 || slot >= promSlots {
		return 0, 0, false
	}
	id := h.exID[slot].Load()
	if id == 0 {
		return 0, 0, false
	}
	return id, float64(h.exVal[slot].Load()) / float64(time.Second), true
}

// promBuckets returns the cumulative exposition buckets (upper bounds in
// seconds, cumulative counts), the total count and the sum in seconds.
// The +Inf bucket is implicit: its cumulative count is the returned
// total.
func (h *Histogram) promBuckets() (les []float64, cums []int64, total int64, sumSec float64) {
	var snap [numBuckets]int64
	for i := range snap {
		snap[i] = h.counts[i].Load()
		total += snap[i]
	}
	sumSec = float64(h.sumNS.Load()) / float64(time.Second)
	les = make([]float64, 0, promMaxExp-promMinExp+1)
	cums = make([]int64, 0, promMaxExp-promMinExp+1)
	var cum int64
	idx := 0
	for exp := promMinExp; exp <= promMaxExp; exp++ {
		bound := uint64(1) << uint(exp)
		// Fine buckets are ascending; accumulate every bucket whose
		// values are < bound (upper bound bound-1 ≤ bound-1 < bound).
		for idx < numBuckets && bucketUpperNS(idx) < bound {
			cum += snap[idx]
			idx++
		}
		les = append(les, float64(bound)/float64(time.Second))
		cums = append(cums, cum)
	}
	return les, cums, total, sumSec
}
