package randx

import (
	"math"
	"testing"
)

func TestZipfValidation(t *testing.T) {
	if _, err := NewZipf(0, 1.4); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := NewZipf(10, 0); err == nil {
		t.Error("alpha=0 accepted")
	}
	if _, err := NewZipf(10, -1); err == nil {
		t.Error("alpha<0 accepted")
	}
}

func TestZipfProbSumsToOne(t *testing.T) {
	z := MustZipf(100, 1.4)
	sum := 0.0
	for k := 0; k < z.N(); k++ {
		sum += z.Prob(k)
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("probabilities sum to %g", sum)
	}
	if z.Prob(-1) != 0 || z.Prob(100) != 0 {
		t.Fatal("out-of-range Prob should be 0")
	}
}

func TestZipfMonotoneDecreasing(t *testing.T) {
	z := MustZipf(50, 1.4)
	for k := 1; k < z.N(); k++ {
		if z.Prob(k) > z.Prob(k-1)+1e-12 {
			t.Fatalf("Prob(%d)=%g > Prob(%d)=%g", k, z.Prob(k), k-1, z.Prob(k-1))
		}
	}
}

func TestZipfRatioMatchesPowerLaw(t *testing.T) {
	alpha := 1.4
	z := MustZipf(1000, alpha)
	// P(1)/P(2) should be 2^alpha.
	got := z.Prob(0) / z.Prob(1)
	want := math.Pow(2, alpha)
	if math.Abs(got-want)/want > 1e-9 {
		t.Fatalf("P(1)/P(2) = %g, want %g", got, want)
	}
}

func TestZipfSampleDistribution(t *testing.T) {
	rng := New(42)
	z := MustZipf(20, 1.4)
	counts := make([]int, z.N())
	const draws = 200000
	for i := 0; i < draws; i++ {
		k := z.Sample(rng)
		if k < 0 || k >= z.N() {
			t.Fatalf("sample %d out of range", k)
		}
		counts[k]++
	}
	for k := 0; k < 5; k++ {
		emp := float64(counts[k]) / draws
		want := z.Prob(k)
		if math.Abs(emp-want) > 0.01 {
			t.Errorf("rank %d: empirical %g, want %g", k, emp, want)
		}
	}
	// skew check: rank 0 should dominate
	if counts[0] <= counts[1] || counts[1] <= counts[5] {
		t.Error("distribution not skewed as expected")
	}
}

func TestZipfSingleRank(t *testing.T) {
	z := MustZipf(1, 2.0)
	rng := New(1)
	for i := 0; i < 10; i++ {
		if z.Sample(rng) != 0 {
			t.Fatal("single-rank Zipf must always return 0")
		}
	}
}

func TestDeterminism(t *testing.T) {
	z := MustZipf(100, 1.4)
	a, b := New(7), New(7)
	for i := 0; i < 100; i++ {
		if z.Sample(a) != z.Sample(b) {
			t.Fatal("same seed produced different samples")
		}
	}
}

func TestMustZipfPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustZipf should panic on bad input")
		}
	}()
	MustZipf(0, 1)
}
