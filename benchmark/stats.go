package main

import "slices"

// percentile returns the nearest-rank p-quantile (0 < p < 1) of sorted and
// the number of samples beyond it. Callers print that count: a percentile
// with fewer than ten samples beyond it is noise, not a tail.
func percentile(sorted []int64, p float64) (v int64, beyond int) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	rank := int(p*float64(n)+0.999999999) - 1 // ceil(p·n) − 1
	if rank < 0 {
		rank = 0
	}
	if rank >= n {
		rank = n - 1
	}
	return sorted[rank], n - 1 - rank
}

func mean(v []int64) float64 {
	if len(v) == 0 {
		return 0
	}
	var sum float64
	for _, x := range v {
		sum += float64(x)
	}
	return sum / float64(len(v))
}

func median(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of v exactly as Python's
// statistics.quantiles(v, n=4) does (the "exclusive" method), which is how
// the acceptance rule measures spread. It needs at least two values.
func quartiles(v []float64) (q1, q3 float64) {
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// pairedDiff returns the sorted element-wise differences a[i]−b[i] over the
// common prefix: a layer's self time at request i is its rung's span minus
// the rung below at the same request.
func pairedDiff(a, b []int64) []int64 {
	n := min(len(a), len(b))
	d := make([]int64, n)
	for i := range d {
		d[i] = a[i] - b[i]
	}
	slices.Sort(d)
	return d
}

func sortedCopy(v []int64) []int64 {
	s := slices.Clone(v)
	slices.Sort(s)
	return s
}
