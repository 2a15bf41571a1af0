package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the ceil-rank q-quantile of xs: the smallest value
// v such that at least q·n of the values are at or below v. xs need not
// be sorted; it is not modified. An empty input gives 0.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentileSorted(s, q)
}

// percentileSorted is percentile over an already ascending slice.
func percentileSorted(s []float64, q float64) float64 {
	n := len(s)
	if n == 0 {
		return 0
	}
	r := int(math.Ceil(q * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return s[r-1]
}

// mean returns the arithmetic mean of xs (0 for none).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// histQuantile estimates the q-quantile of a cumulative histogram the
// way Prometheus' histogram_quantile does: find the bucket holding rank
// q·count and interpolate linearly inside it. uppers are the finite
// bucket bounds in ascending order and cum the cumulative counts for
// each bound followed by the +Inf count.
func histQuantile(uppers []float64, cum []float64, q float64) float64 {
	if len(cum) == 0 || cum[len(cum)-1] == 0 {
		return 0
	}
	total := cum[len(cum)-1]
	rank := q * total
	lower, below := 0.0, 0.0
	for i, up := range uppers {
		if cum[i] >= rank {
			in := cum[i] - below
			if in == 0 {
				return up
			}
			return lower + (up-lower)*(rank-below)/in
		}
		lower, below = up, cum[i]
	}
	// Rank falls in the +Inf bucket: the largest finite bound is the
	// best statement the histogram can make.
	return lower
}
