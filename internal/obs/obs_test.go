package obs

import (
	"fmt"
	"math"
	"math/rand"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestBucketIndexBounds checks, over the whole value range, that every
// value lands in a bucket whose bounds contain it and that buckets are
// contiguous and ascending.
func TestBucketIndexBounds(t *testing.T) {
	prevUpper := int64(-1)
	for idx := 0; idx < numBuckets; idx++ {
		upper := int64(bucketUpperNS(idx))
		if upper <= prevUpper {
			t.Fatalf("bucket %d upper %d not above previous %d", idx, upper, prevUpper)
		}
		// The upper bound itself must map back to the bucket, and the
		// next value must map to the next bucket.
		if got := bucketIndex(uint64(upper)); got != idx {
			t.Fatalf("bucketIndex(upper=%d) = %d, want %d", upper, got, idx)
		}
		if idx+1 < numBuckets {
			if got := bucketIndex(uint64(upper + 1)); got != idx+1 {
				t.Fatalf("bucketIndex(%d) = %d, want %d", upper+1, got, idx+1)
			}
		}
		prevUpper = upper
	}
}

func TestBucketIndexRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100000; i++ {
		v := uint64(rng.Int63())
		idx := bucketIndex(v)
		upper := bucketUpperNS(idx)
		if v > upper {
			t.Fatalf("value %d above its bucket %d upper %d", v, idx, upper)
		}
		if idx > 0 && v <= bucketUpperNS(idx-1) {
			t.Fatalf("value %d at or below previous bucket upper %d", v, bucketUpperNS(idx-1))
		}
	}
}

// TestQuantileExactBound: the histogram quantile must be an upper bound
// of the true (sorted) quantile, and no more than one bucket width
// (12.5%) above it.
func TestQuantileExactBound(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	h := NewHistogram()
	vals := make([]float64, 0, 5000)
	for i := 0; i < 5000; i++ {
		// Log-uniform over 1µs..1s, the latency range that matters.
		v := time.Duration(1000 * (1 << uint(rng.Intn(20))))
		v += time.Duration(rng.Int63n(int64(v)))
		h.Observe(v)
		vals = append(vals, v.Seconds())
	}
	sort.Float64s(vals)
	for _, q := range []float64{0.5, 0.9, 0.95, 0.99, 0.999} {
		rank := int(q*float64(len(vals))+0.9999999999) - 1
		truth := vals[rank]
		got := h.Quantile(q)
		if got < truth {
			t.Errorf("q=%v: histogram %v below true value %v", q, got, truth)
		}
		if got > truth*(1+1.0/subBuckets)+1e-9 {
			t.Errorf("q=%v: histogram %v more than one bucket above true value %v", q, got, truth)
		}
	}
}

func TestQuantileEdgeCases(t *testing.T) {
	h := NewHistogram()
	if got := h.Quantile(0.5); got != 0 {
		t.Fatalf("empty histogram quantile = %v, want 0", got)
	}
	if got := h.MeanSeconds(); got != 0 {
		t.Fatalf("empty histogram mean = %v, want 0", got)
	}
	h.Observe(-time.Second) // clamps to 0
	if got := h.Quantile(0.5); got != 0 {
		t.Fatalf("negative observation quantile = %v, want 0", got)
	}
	if h.Count() != 1 {
		t.Fatalf("count = %d, want 1", h.Count())
	}
	h.Observe(time.Millisecond)
	if got := h.Quantile(1.0); got < 0.001 {
		t.Fatalf("q=1 = %v, want ≥ 1ms", got)
	}
	if got := h.Quantile(0); got > 0 {
		t.Fatalf("q=0 = %v, want bucket 0 bound", got)
	}
}

// TestQuantileHostileInputs pins Quantile against inputs outside (0, 1):
// whatever q a caller computes — including NaN from a 0/0 upstream — the
// result must be a finite, non-negative bucket bound.
func TestQuantileHostileInputs(t *testing.T) {
	h := NewHistogram()
	// Empty histogram: every q, however hostile, reads 0.
	for _, q := range []float64{math.NaN(), -1, 0, 0.5, 1, 2, math.Inf(1), math.Inf(-1)} {
		if got := h.Quantile(q); got != 0 {
			t.Fatalf("empty Quantile(%v) = %v, want 0", q, got)
		}
	}
	h.Observe(time.Microsecond)
	h.Observe(time.Millisecond)
	h.Observe(time.Second)
	lo, hi := h.Quantile(0), h.Quantile(1)
	for _, q := range []float64{math.NaN(), -1, -0.001, 2, 1000, math.Inf(1), math.Inf(-1)} {
		got := h.Quantile(q)
		if math.IsNaN(got) || math.IsInf(got, 0) || got < 0 {
			t.Fatalf("Quantile(%v) = %v, want finite non-negative", q, got)
		}
		if got < lo || got > hi {
			t.Fatalf("Quantile(%v) = %v outside observed bound range [%v, %v]", q, got, lo, hi)
		}
	}
	// NaN and +Inf clamp to the max, negatives to the min.
	for _, q := range []float64{math.NaN(), 2, math.Inf(1)} {
		if got := h.Quantile(q); got != hi {
			t.Fatalf("Quantile(%v) = %v, want max bound %v", q, got, hi)
		}
	}
	for _, q := range []float64{-1, math.Inf(-1)} {
		if got := h.Quantile(q); got != lo {
			t.Fatalf("Quantile(%v) = %v, want min bound %v", q, got, lo)
		}
	}
}

// observeSeconds records one duration given in seconds, taming hostile
// floats before the int64 conversion (whose result is otherwise
// implementation-defined in Go): NaN and negatives record as 0, values
// beyond the int64 nanosecond range saturate at the top bucket.
func observeSeconds(h *Histogram, s float64) {
	if math.IsNaN(s) || s <= 0 {
		h.Observe(0)
		return
	}
	if s >= float64(math.MaxInt64)/float64(time.Second) {
		h.Observe(time.Duration(math.MaxInt64))
		return
	}
	h.Observe(time.Duration(s * float64(time.Second)))
}

// TestObserveSecondsHostileFloats: whatever float arithmetic produced,
// recording it must leave the histogram internally consistent — counts
// land in real buckets and SumSeconds stays finite.
func TestObserveSecondsHostileFloats(t *testing.T) {
	h := NewHistogram()
	hostile := []float64{math.NaN(), math.Inf(1), math.Inf(-1), -5, 0, 1e300, 1e-12, 0.002}
	for _, s := range hostile {
		observeSeconds(h, s)
	}
	if h.Count() != int64(len(hostile)) {
		t.Fatalf("count = %d, want %d", h.Count(), len(hostile))
	}
	var bucketSum int64
	h.ForEachBucket(func(upper float64, c int64) {
		if math.IsNaN(upper) || upper < 0 {
			t.Fatalf("bucket bound %v invalid", upper)
		}
		bucketSum += c
	})
	// ForEachBucket skips the zero bucket only if empty; NaN/-Inf/-5/0
	// all clamp into bucket 0, which is non-empty here, so the walk must
	// account for every observation.
	if bucketSum != h.Count() {
		t.Fatalf("bucket sum %d != count %d: an observation landed outside the bucket range", bucketSum, h.Count())
	}
	if s := h.SumSeconds(); math.IsNaN(s) || math.IsInf(s, 0) || s < 0 {
		t.Fatalf("SumSeconds = %v, want finite non-negative", s)
	}
	if m := h.MeanSeconds(); math.IsNaN(m) || math.IsInf(m, 0) || m < 0 {
		t.Fatalf("MeanSeconds = %v, want finite non-negative", m)
	}
	for _, q := range []float64{0.5, 0.99, 1} {
		if v := h.Quantile(q); math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			t.Fatalf("Quantile(%v) = %v after hostile observations", q, v)
		}
	}
}

// TestExpositionNoNaN: the grammar regexp in validateExposition accepts a
// literal NaN sample value (Prometheus allows it), so absence of NaN from
// histogram-derived series is asserted explicitly. Histograms fed hostile
// floats must never render NaN into the exposition.
func TestExpositionNoNaN(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("gc_hostile_seconds", "Hostile inputs.", nil)
	for _, s := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1, 1e300, 0.004} {
		observeSeconds(h, s)
	}
	var b strings.Builder
	if err := r.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	validateExposition(t, out)
	if strings.Contains(out, "NaN") {
		t.Fatalf("exposition contains NaN:\n%s", out)
	}
	if !strings.Contains(out, "gc_hostile_seconds_count 6") {
		t.Fatalf("exposition lost hostile observations:\n%s", out)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram()
	const workers, per = 8, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < per; i++ {
				h.Observe(time.Duration(rng.Int63n(int64(time.Second))))
			}
		}(int64(w))
	}
	// Concurrent reads must be safe (and self-consistent enough not to
	// panic or return garbage).
	for i := 0; i < 100; i++ {
		_ = h.Quantile(0.99)
		_ = h.Count()
	}
	wg.Wait()
	if h.Count() != workers*per {
		t.Fatalf("count = %d, want %d", h.Count(), workers*per)
	}
	var sum int64
	h.ForEachBucket(func(_ float64, c int64) { sum += c })
	if sum != workers*per {
		t.Fatalf("bucket sum = %d, want %d", sum, workers*per)
	}
}

// expositionLine matches one Prometheus text-format sample line. Label
// values may contain backslash escapes (\\, \", \n); a bucket line may
// end with an OpenMetrics exemplar (` # {labels} value`).
var expositionLine = regexp.MustCompile(
	`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")*\})? (-?[0-9.e+-]+|NaN|\+Inf|-Inf)( # \{[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"\} (-?[0-9.e+-]+|NaN|\+Inf|-Inf))?$`)

// ValidateExposition parses a Prometheus text exposition and fails on
// any malformed line. Exported to the test binary only (used by the
// serve handler tests via copy — kept here as the reference validator).
func validateExposition(t *testing.T, body string) (samples int) {
	t.Helper()
	for ln, line := range strings.Split(body, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !expositionLine.MatchString(line) {
			t.Fatalf("line %d is not valid exposition: %q", ln+1, line)
		}
		samples++
	}
	return samples
}

func TestRegistryWriteProm(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("gc_requests_total", "Total requests.", nil)
	c.Add(41)
	c.Add(1)
	g := r.Gauge("gc_temperature", "Current temperature.", Labels{"room": "a"})
	g.Set(3.5)
	h := r.Histogram("gc_latency_seconds", "Latency.", Labels{"shard": "0", "stage": "query"})
	h.Observe(3 * time.Millisecond)
	h.Observe(40 * time.Microsecond)
	h.Observe(2 * time.Second)

	var b strings.Builder
	if err := r.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	samples := validateExposition(t, out)
	if samples == 0 {
		t.Fatal("no samples rendered")
	}
	for _, want := range []string{
		"# TYPE gc_requests_total counter",
		"gc_requests_total 42",
		"# TYPE gc_temperature gauge",
		`gc_temperature{room="a"} 3.5`,
		"# TYPE gc_latency_seconds histogram",
		`gc_latency_seconds_bucket{shard="0",stage="query",le="+Inf"} 3`,
		`gc_latency_seconds_count{shard="0",stage="query"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}
	// Histogram buckets must be cumulative (non-decreasing) and end at
	// the total count.
	var last int64 = -1
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "gc_latency_seconds_bucket") {
			continue
		}
		var v int64
		if _, err := fmt.Sscanf(line[strings.LastIndex(line, " ")+1:], "%d", &v); err != nil {
			t.Fatalf("parsing %q: %v", line, err)
		}
		if v < last {
			t.Fatalf("bucket counts not cumulative at %q", line)
		}
		last = v
	}
	if last != 3 {
		t.Fatalf("final cumulative bucket = %d, want 3", last)
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("dup_total", "", Labels{"a": "1"})
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	r.Counter("dup_total", "", Labels{"a": "1"})
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("mix_total", "", nil)
	defer func() {
		if recover() == nil {
			t.Fatal("kind mismatch did not panic")
		}
	}()
	r.Gauge("mix_total", "", Labels{"a": "1"})
}

// SumSeconds returns the sum of all observations in seconds.
func (h *Histogram) SumSeconds() float64 {
	return float64(h.sumNS.Load()) / float64(time.Second)
}

// MeanSeconds returns the mean observation in seconds (0 when empty).
func (h *Histogram) MeanSeconds() float64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return float64(h.sumNS.Load()) / float64(n) / float64(time.Second)
}

// ForEachBucket visits the non-empty buckets in ascending order with
// their upper bound (seconds) and count, for assertions on bucket
// totals.
func (h *Histogram) ForEachBucket(fn func(upperSec float64, count int64)) {
	for i := 0; i < numBuckets; i++ {
		if c := h.counts[i].Load(); c > 0 {
			fn(float64(bucketUpperNS(i))/float64(time.Second), c)
		}
	}
}
