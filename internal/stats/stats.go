// Package stats provides the small statistical toolbox GC+ needs: running
// moments (Welford), the squared coefficient of variation used by the HD
// cache-replacement policy (§7.1: CoV² > 1 ⇒ the R distribution is "high
// variability" and PIN is used, otherwise PINC), and summary helpers for
// the benchmark reports.
package stats

import (
	"math"
	"time"
)

// Running accumulates count/mean/variance online (Welford's algorithm).
// The zero value is ready to use.
type Running struct {
	n    int64
	mean float64
	m2   float64
}

// Add folds x into the accumulator.
func (r *Running) Add(x float64) {
	r.n++
	d := x - r.mean
	r.mean += d / float64(r.n)
	r.m2 += d * (x - r.mean)
}

// AddDuration folds a duration (in seconds) into the accumulator.
func (r *Running) AddDuration(d time.Duration) { r.Add(d.Seconds()) }

// N returns the number of observations.
func (r *Running) N() int64 { return r.n }

// Mean returns the running mean (0 for no observations).
func (r *Running) Mean() float64 { return r.mean }

// Variance returns the population variance. A negative m2 — reachable
// through floating-point cancellation in the Welford update — clamps to
// 0 so Std can never return NaN (NaN is not valid JSON and would poison
// every serialized snapshot).
func (r *Running) Variance() float64 {
	if r.n == 0 || r.m2 <= 0 {
		return 0
	}
	return r.m2 / float64(r.n)
}

// Std returns the population standard deviation.
func (r *Running) Std() float64 { return math.Sqrt(r.Variance()) }

// Sum returns mean*n.
func (r *Running) Sum() float64 { return r.mean * float64(r.n) }

// CoV2 returns the squared coefficient of variation σ²/μ². For an all-zero
// or empty sample it returns 0 (deemed low variability, matching the HD
// policy's intent: indistinguishable R values carry no discriminating
// power).
func (r *Running) CoV2() float64 {
	if r.n == 0 || r.mean == 0 {
		return 0
	}
	return r.Variance() / (r.mean * r.mean)
}
