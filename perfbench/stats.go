package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is the fewest samples a reported tail percentile must leave
// above it. A tail resting on fewer samples is decided by one or two
// outliers and moves between identical runs.
const minBeyond = 10

// tailLadder is the set of percentiles a tail may be reported at.
var tailLadder = []float64{50, 90, 95, 99, 99.5, 99.9, 99.95, 99.99, 99.995, 99.999}

// rankIndex is the 0-based index of the nearest-rank p-th percentile of n
// sorted samples.
func rankIndex(n int, p float64) int {
	idx := int(math.Ceil(p/100*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx > n-1 {
		idx = n - 1
	}
	return idx
}

// samplesBeyond counts the samples strictly above the nearest-rank p-th
// percentile of n samples.
func samplesBeyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - 1 - rankIndex(n, p)
}

// tailPercentile returns the highest ladder percentile no higher than
// limit that leaves at least minBeyond samples above it, and false when
// even the median leaves fewer.
func tailPercentile(n int, limit float64) (float64, bool) {
	best, ok := 0.0, false
	for _, p := range tailLadder {
		if p <= limit && samplesBeyond(n, p) >= minBeyond {
			best, ok = p, true
		}
	}
	return best, ok
}

// percentile returns the nearest-rank p-th percentile of sorted.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rankIndex(len(sorted), p)]
}

// median returns the median of xs (the mean of the middle pair for an even
// count) without reordering xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
