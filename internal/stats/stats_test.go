package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func almost(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestRunningBasics(t *testing.T) {
	var r Running
	if r.Mean() != 0 || r.Variance() != 0 || r.CoV2() != 0 || r.N() != 0 {
		t.Fatal("zero value not neutral")
	}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		r.Add(x)
	}
	if r.N() != 8 {
		t.Fatalf("N = %d", r.N())
	}
	if !almost(r.Mean(), 5, 1e-12) {
		t.Fatalf("Mean = %g", r.Mean())
	}
	if !almost(r.Variance(), 4, 1e-12) {
		t.Fatalf("Variance = %g", r.Variance())
	}
	if !almost(r.Std(), 2, 1e-12) {
		t.Fatalf("Std = %g", r.Std())
	}
	if !almost(r.Sum(), 40, 1e-9) {
		t.Fatalf("Sum = %g", r.Sum())
	}
	if !almost(r.CoV2(), 4.0/25.0, 1e-12) {
		t.Fatalf("CoV2 = %g", r.CoV2())
	}
}

func TestAddDuration(t *testing.T) {
	var r Running
	r.AddDuration(1500 * time.Millisecond)
	r.AddDuration(500 * time.Millisecond)
	if !almost(r.Mean(), 1.0, 1e-12) {
		t.Fatalf("Mean = %g", r.Mean())
	}
}

func TestCoV2Exponential(t *testing.T) {
	// Exponential distribution has CoV == 1; HD uses CoV² > 1 as the
	// high-variability threshold, so the sample value should hover ~1.
	rng := rand.New(rand.NewSource(5))
	xs := make([]float64, 40000)
	for i := range xs {
		xs[i] = rng.ExpFloat64()
	}
	got := CoV2Of(xs)
	if got < 0.9 || got > 1.1 {
		t.Fatalf("exponential CoV² = %g, want ≈1", got)
	}
}

func TestCoV2Constant(t *testing.T) {
	if got := CoV2Of([]float64{3, 3, 3, 3}); got != 0 {
		t.Fatalf("constant CoV² = %g, want 0", got)
	}
	if got := CoV2Of(nil); got != 0 {
		t.Fatalf("empty CoV² = %g, want 0", got)
	}
}

func TestMeanStd(t *testing.T) {
	if mean(nil) != 0 {
		t.Fatal("mean(nil) != 0")
	}
	if !almost(mean([]float64{1, 2, 3}), 2, 1e-12) {
		t.Fatal("mean wrong")
	}
	if !almost(std([]float64{2, 4, 4, 4, 5, 5, 7, 9}), 2, 1e-12) {
		t.Fatal("std wrong")
	}
}

func TestQuickRunningMatchesBatch(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(200)
		xs := make([]float64, n)
		var r Running
		for i := range xs {
			xs[i] = rng.NormFloat64()*10 + 5
			r.Add(xs[i])
		}
		return almost(r.Mean(), mean(xs), 1e-9) &&
			almost(r.Std(), std(xs), 1e-9) &&
			almost(r.CoV2(), CoV2Of(xs), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestStdNeverNaN pins the NaN guards: a zero-count accumulator, a
// single observation, and a negative-m2 accumulator (floating-point
// cancellation) must all yield Std() == 0, not NaN — NaN is invalid
// JSON and would poison serialized snapshots.
func TestStdNeverNaN(t *testing.T) {
	var r Running
	if s := r.Std(); s != 0 || math.IsNaN(s) {
		t.Fatalf("zero-value Std = %g, want 0", s)
	}
	r.Add(3)
	if s := r.Std(); s != 0 || math.IsNaN(s) {
		t.Fatalf("single-observation Std = %g, want 0", s)
	}
	neg := Running{n: 5, mean: 1.0, m2: -1e-12}
	if v := neg.Variance(); v != 0 {
		t.Fatalf("negative-m2 Variance = %g, want 0", v)
	}
	if s := neg.Std(); math.IsNaN(s) || s != 0 {
		t.Fatalf("negative-m2 Std = %g, want 0", s)
	}
	// Welford cancellation shape: many equal large values can leave m2 a
	// tiny negative residue on some platforms; whatever it leaves, Std
	// must be a finite non-negative number.
	var c Running
	for i := 0; i < 1000; i++ {
		c.Add(1e15 + 0.1)
	}
	if s := c.Std(); math.IsNaN(s) || s < 0 {
		t.Fatalf("cancellation Std = %g, want finite ≥ 0", s)
	}
}

// CoV2Of computes the squared coefficient of variation of a sample.
func CoV2Of(xs []float64) float64 {
	var r Running
	for _, x := range xs {
		r.Add(x)
	}
	return r.CoV2()
}

// mean and std are the two-pass batch references the Running
// accumulator is checked against: the arithmetic mean and the
// population standard deviation of xs (both 0 for empty).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func std(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m, ss := mean(xs), 0.0
	for _, x := range xs {
		ss += (x - m) * (x - m)
	}
	return math.Sqrt(ss / float64(len(xs)))
}
