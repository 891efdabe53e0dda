// Package stats provides average-case analysis of the consensus protocols
// under randomized fault injection, and the exact latency percentiles of the
// replicated-log service.
//
// The paper's practical argument (Section 2.2) leans on failures being rare:
// "f = 0 and f = 1 are the most common values". This package quantifies that
// argument by sweeping crash probabilities and measuring the distribution of
// decision rounds, message counts and decision times across seeds — the
// expected-case companion to the worst-case theorems (experiment E11).
//
// Percentiles is the one nearest-rank implementation: Sample.Percentile
// calls it on a copy, and smr.Serve calls it once per session on its
// commit-latency buffer, which it reorders in place instead of sorting.
package stats

import (
	"cmp"
	"math"
	"math/bits"
	"slices"
)

// Sample accumulates observations of one scalar metric.
type Sample struct {
	values []float64
}

// Add records one observation.
func (s *Sample) Add(v float64) { s.values = append(s.values, v) }

// N returns the number of observations.
func (s *Sample) N() int { return len(s.values) }

// Mean returns the arithmetic mean (0 for an empty sample).
func (s *Sample) Mean() float64 {
	if len(s.values) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range s.values {
		sum += v
	}
	return sum / float64(len(s.values))
}

// Percentile returns the p-th percentile (0 <= p <= 100) using
// nearest-rank; 0 for an empty sample. It leaves the sample as it is.
func (s *Sample) Percentile(p float64) float64 {
	var out [1]float64
	Percentiles(slices.Clone(s.values), []float64{p}, out[:])
	return out[0]
}

// Percentiles writes to out[i] the nearest-rank ps[i]-th percentile of v:
// the value of rank ⌈p·n/100⌉ (1-based) of v sorted ascending, the minimum
// for p <= 0 and the maximum for p >= 100; 0 for an empty v. Every rank is
// computed from the full n = len(v). out must be at least as long as ps.
//
// v is reordered in place instead of sorted: each rank is found by selection
// inside the part of v that the ranks already found leave open, so with ps
// in descending order every search runs in the prefix the last one left.
// Values are ordered as sort.Float64s orders them (NaN below everything).
func Percentiles(v, ps, out []float64) {
	n := len(v)
	for i, p := range ps {
		if n == 0 {
			out[i] = 0
			continue
		}
		k := nearestRank(p, n)
		// Every rank found so far splits v: nothing before it is larger,
		// nothing after it smaller. Search between the nearest two.
		lo, hi := 0, n
		for _, q := range ps[:i] {
			switch r := nearestRank(q, n); {
			case r < k:
				lo = max(lo, r+1)
			case r > k:
				hi = min(hi, r)
			default:
				lo, hi = k, k+1
			}
		}
		selectRank(v, lo, hi, k)
		out[i] = v[k]
	}
}

// nearestRank returns the 0-based index of the p-th percentile in a sorted
// slice of n > 0 values.
func nearestRank(p float64, n int) int {
	if !(p > 0) {
		return 0
	}
	if p >= 100 {
		return n - 1
	}
	return min(max(int(math.Ceil(p/100*float64(n)))-1, 0), n-1)
}

// selectRank reorders v[lo:hi] so that v[k], lo <= k < hi, holds the value
// of rank k in v, no value of v[lo:k] is larger and none of v[k+1:hi]
// smaller, given that no value of v[:lo] is larger and none of v[hi:]
// smaller than any of v[lo:hi]. It is a quickselect on the median of the
// first, middle and last values that sorts the range once about 2·log₂ of its
// length partition steps have not narrowed it to a few values, so its worst
// case stays O(n log n). It reports whether that budget ran out.
func selectRank(v []float64, lo, hi, k int) (sorted bool) {
	budget := 2 * bits.Len(uint(hi-lo))
	for hi-lo > 12 {
		if budget == 0 {
			slices.Sort(v[lo:hi])
			return true
		}
		budget--
		cut := partition(v, lo, hi, median3(v[lo], v[lo+(hi-lo)/2], v[hi-1]))
		if cut <= k {
			lo = cut
		} else {
			hi = cut
		}
	}
	slices.Sort(v[lo:hi])
	return false
}

// median3 returns the median of three values.
func median3(a, b, c float64) float64 {
	if cmp.Less(b, a) {
		a, b = b, a
	}
	if cmp.Less(c, b) {
		b = c
		if cmp.Less(b, a) {
			b = a
		}
	}
	return b
}

// partition reorders v[lo:hi] around pivot, a median of three of its values,
// and returns cut, lo < cut < hi, with no value of v[lo:cut] above pivot and
// none of v[cut:hi] below it. The scans need no bounds checks of their own:
// the values the pivot was the median of stop them on the first pass, and
// every swap leaves a stopper behind for the next.
func partition(v []float64, lo, hi int, pivot float64) int {
	for {
		for cmp.Less(v[lo], pivot) {
			lo++
		}
		hi--
		for cmp.Less(pivot, v[hi]) {
			hi--
		}
		if lo >= hi {
			return lo
		}
		v[lo], v[hi] = v[hi], v[lo]
		lo++
	}
}
