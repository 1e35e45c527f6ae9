package main

import (
	"cmp"
	"math"
	"slices"
	"sort"
)

// quartiles returns the three cut points of xs the way Python's
// statistics.quantiles(xs, n=4) computes them (the "exclusive" method), so
// the spreads printed here are the ones an outside check recomputes.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	switch len(d) {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return d[0], d[0], d[0]
	}
	m := len(d) + 1
	cut := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > len(d)-1 {
			j = len(d) - 1
		}
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// summary of one metric's samples: the median, which is the reported
// figure, the interquartile range and the count.
type spread struct {
	Median float64 `json:"median"`
	IQR    float64 `json:"iqr"`
	N      int     `json:"n"`
}

func spreadOf(xs []float64) spread {
	q1, q2, q3 := quartiles(xs)
	return spread{Median: q2, IQR: q3 - q1, N: len(xs)}
}

// percentile returns the nearest-rank q-quantile of xs.
func percentile[T cmp.Ordered](xs []T, q float64) T {
	if len(xs) == 0 {
		var zero T
		return zero
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	rank := int(math.Ceil(q * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}
