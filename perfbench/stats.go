package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported tail percentile.
// A percentile with fewer samples beyond it is one or two events on a noisy
// host, not a property of the system.
const minBeyond = 10

// median returns the middle of xs (mean of the two middles for even
// length). xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// tail returns the nearest-rank p-th percentile (0 < p < 1) of xs and the
// number of samples strictly beyond its rank. It fails, rather than report
// a thin tail, when fewer than minBeyond samples lie beyond.
func tail(xs []float64, p float64) (value float64, beyond int, err error) {
	n := len(xs)
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	beyond = n - rank
	if n == 0 || beyond < minBeyond {
		return 0, beyond, fmt.Errorf("p%g of %d samples has %d beyond it, need %d: run longer", 100*p, n, beyond, minBeyond)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], beyond, nil
}

// samplesFor is the smallest sample count at which the p-th percentile has
// minBeyond samples beyond it.
func samplesFor(p float64) int {
	n := minBeyond + 1
	for n-int(math.Ceil(p*float64(n))) < minBeyond {
		n++
	}
	return n
}
