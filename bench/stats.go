package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs, interpolating linearly
// between order statistics; 0 for an empty sample. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// tailLadder lists the percentiles tail chooses from, in hundredths of a
// percent, highest first.
var tailLadder = []int{9999, 9990, 9900, 9500, 9000, 5000}

// tail returns the highest percentile of the ladder that has at least ten
// samples beyond it, and the sample's value there; (0, 0) when even the
// median has fewer than ten samples above it.
func tail(xs []float64) (pct, value float64) {
	for _, p := range tailLadder {
		if len(xs)*(10000-p)/10000 >= 10 {
			return float64(p) / 100, quantile(xs, float64(p)/10000)
		}
	}
	return 0, 0
}

// mean is the arithmetic mean; 0 for an empty sample.
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

// ratio is a/b, or 0 when b is 0, so a metric never becomes NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
