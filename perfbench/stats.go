package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or NaN for no values. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean returns the arithmetic mean of xs, or NaN for no values.
func mean(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// quartiles returns the first and third quartiles of xs exactly as
// Python's statistics.quantiles(xs, n=4) computes them by default (the
// "exclusive" method: the i-th cut point sits at position i·(len+1)/4 of
// the sorted data, interpolated linearly, with the index clamped to the
// data). At least two values are needed; with fewer, both quartiles equal
// the lone value (or NaN for none).
func quartiles(xs []float64) (q1, q3 float64) {
	switch len(xs) {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return xs[0], xs[0]
	}
	s := sorted(xs)
	cut := func(i int) float64 {
		const n = 4
		m := len(s) + 1
		j := min(max(i*m/n, 1), len(s)-1)
		delta := float64(i*m - j*n)
		return (s[j-1]*(n-delta) + s[j]*delta) / n
	}
	return cut(1), cut(3)
}

// spread is the interquartile distance of xs as a share of its median:
// the run-to-run noise figure the benchmark's bounds are judged against.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(median(xs))
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
