// Package randx provides the deterministic random samplers used by the
// GC+ evaluation: seeded uniform sources and the rank-based Zipf sampler
// from §7.1 of the paper (p(x) = x^(-α)/ζ(α), default α = 1.4).
//
// Every generator in this repository takes an explicit *rand.Rand so that
// whole experiments are reproducible from a single seed.
package randx

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// New returns a seeded *rand.Rand. It exists so callers never reach for
// the global source by accident.
func New(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// Zipf samples ranks in [0, n) with P(rank k) ∝ (k+1)^(-α). Unlike
// math/rand's Zipf it allows 0 < α ≤ 1 as well and its parameterization
// matches the paper's directly (probability density x^(-α)/ζ(α) truncated
// to n items and renormalized).
type Zipf struct {
	cum   []float64 // cumulative probabilities, cum[n-1] == 1
	alpha float64
}

// NewZipf builds a Zipf sampler over n ranks with exponent alpha.
func NewZipf(n int, alpha float64) (*Zipf, error) {
	if n <= 0 {
		return nil, fmt.Errorf("randx: Zipf needs n > 0, got %d", n)
	}
	if alpha <= 0 {
		return nil, fmt.Errorf("randx: Zipf needs alpha > 0, got %g", alpha)
	}
	cum := make([]float64, n)
	total := 0.0
	for k := 0; k < n; k++ {
		total += math.Pow(float64(k+1), -alpha)
		cum[k] = total
	}
	for k := range cum {
		cum[k] /= total
	}
	cum[n-1] = 1 // guard against floating point slack
	return &Zipf{cum: cum, alpha: alpha}, nil
}

// MustZipf is NewZipf that panics on error.
func MustZipf(n int, alpha float64) *Zipf {
	z, err := NewZipf(n, alpha)
	if err != nil {
		panic(err)
	}
	return z
}

// N returns the number of ranks.
func (z *Zipf) N() int { return len(z.cum) }

// Alpha returns the exponent.
func (z *Zipf) Alpha() float64 { return z.alpha }

// Sample draws a rank in [0, N).
func (z *Zipf) Sample(rng *rand.Rand) int {
	u := rng.Float64()
	return sort.SearchFloat64s(z.cum, u)
}

// Prob returns the probability of rank k.
func (z *Zipf) Prob(k int) float64 {
	if k < 0 || k >= len(z.cum) {
		return 0
	}
	if k == 0 {
		return z.cum[0]
	}
	return z.cum[k] - z.cum[k-1]
}
