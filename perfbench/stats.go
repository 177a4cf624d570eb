package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is the tail rule: a tail percentile is only reported when
// at least this many samples lie beyond it.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of xs:
// the smallest sample with at least a share p of the samples at or
// below it. xs need not be sorted; it is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	return s[rank(len(s), p)]
}

// rank is the 0-based index of the nearest-rank p-quantile among n
// sorted samples.
func rank(n int, p float64) int {
	r := int(math.Ceil(p*float64(n))) - 1
	if r < 0 {
		r = 0
	}
	if r > n-1 {
		r = n - 1
	}
	return r
}

// beyond counts the samples of n strictly above the nearest-rank
// p-quantile's position.
func beyond(n int, p float64) int { return n - 1 - rank(n, p) }

// minSamples is the smallest sample count whose p-quantile has
// minBeyond samples beyond it; a run sizes its rounds from it.
func minSamples(p float64) int {
	n := minBeyond + 1
	for beyond(n, p) < minBeyond {
		n++
	}
	return n
}

// millis converts a duration to milliseconds, keeping every digit.
func millis(d time.Duration) float64 { return float64(d) / 1e6 }

func median(xs []float64) float64 { return percentile(xs, 0.5) }

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
