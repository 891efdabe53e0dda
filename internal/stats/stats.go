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
// commit-latency buffer, which it reorders in place instead of sorting: a
// radix pass over order-preserving float keys puts each requested rank in a
// small bucket, and a selection inside the bucket finds it.
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
// Values are ordered as sort.Float64s orders them (NaN below everything).
//
// v is reordered in place instead of sorted, and nothing is allocated. A
// radix pass narrows the search first: one pass finds the range of v's
// order-preserving keys, one counts v into radixBuckets buckets of that
// range, which places every requested rank in a bucket, and one moves the
// values of those buckets to the front of v, bucket by bucket. Each rank is
// then selected inside its bucket, and inside the part of the bucket that
// the ranks already found there leave open. More than maxTargets
// percentiles, or a v of one key, skip the pass and select in all of v.
func Percentiles(v, ps, out []float64) {
	n := len(v)
	if n == 0 {
		clear(out[:len(ps)])
		return
	}
	var buf [maxTargets]target
	ts := buf[:0]
	if len(ps) <= maxTargets {
		ts = radixFront(v, ps, ts)
	}
	for i, p := range ps {
		lo, hi, k := place(ts, n, nearestRank(p, n))
		// Every rank found so far splits its part of v: nothing before it is
		// larger, nothing after it smaller. Search between the nearest two.
		for _, q := range ps[:i] {
			switch _, _, r := place(ts, n, nearestRank(q, n)); {
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

// Radix pass parameters: the buckets of the range, and the most targets the
// pass keeps track of.
const (
	radixBits    = 11
	radixBuckets = 1 << radixBits
	maxTargets   = 8
)

// target is one bucket holding a requested rank: its values have the ranks
// [rank, rank+size) of v, and the radix pass moves them to v[at:at+size].
type target struct{ bucket, rank, size, at int }

// place returns the part of v that holds rank k, [lo, hi), and the index in
// it where k's value belongs: its target's bucket, or all of v.
func place(ts []target, n, k int) (lo, hi, at int) {
	for _, t := range ts {
		if k >= t.rank && k < t.rank+t.size {
			return t.at, t.at + t.size, t.at + k - t.rank
		}
	}
	return 0, n, k
}

// key maps a float64 to a uint64 whose unsigned order is the order
// sort.Float64s gives: every NaN lowest, then -Inf up to +Inf, -0 just
// below +0.
func key(x float64) uint64 {
	if x != x {
		return 0
	}
	b := math.Float64bits(x)
	return b ^ (uint64(int64(b)>>63) | 1<<63)
}

// radixFront finds the bucket of every requested rank, moves those buckets'
// values to the front of v and returns them, appended to ts in bucket order.
// It returns ts empty when v holds a single key.
func radixFront(v, ps []float64, ts []target) []target {
	n := len(v)
	kmin, kmax := key(v[0]), key(v[0])
	for _, x := range v[1:] {
		k := key(x)
		kmin, kmax = min(kmin, k), max(kmax, k)
	}
	if kmin == kmax {
		return ts
	}
	shift := max(bits.Len64(kmax-kmin)-radixBits, 0)
	var count [radixBuckets]int
	for _, x := range v {
		count[(key(x)-kmin)>>shift]++
	}

	// Walk the buckets in order with the ranks in ascending order. count
	// becomes the class table of the move: a target's index plus one, 0 for
	// every other bucket.
	var ranks [maxTargets]int
	for i, p := range ps {
		ranks[i] = nearestRank(p, n)
	}
	rs := ranks[:len(ps)]
	slices.Sort(rs)
	below, at := 0, 0
	for b := range count {
		size := count[b]
		count[b] = 0
		for len(rs) > 0 && rs[0] < below+size {
			if len(ts) == 0 || ts[len(ts)-1].bucket != b {
				ts = append(ts, target{bucket: b, rank: below, size: size, at: at})
				at += size
				count[b] = len(ts)
			}
			rs = rs[1:]
		}
		below += size
	}

	// Move every target's values into v[t.at:t.at+t.size]: fill the targets'
	// parts in order, swapping in the next value of the target it belongs to
	// or, for a value of no target, one found beyond the front.
	var next [maxTargets]int
	for j, t := range ts {
		next[j] = t.at
	}
	rest := at // the values of no target beyond the front are skipped once
	for j, t := range ts {
		for next[j] < t.at+t.size {
			c := count[(key(v[next[j]])-kmin)>>shift]
			switch {
			case c == j+1:
				next[j]++
			case c != 0:
				v[next[j]], v[next[c-1]] = v[next[c-1]], v[next[j]]
				next[c-1]++
			default:
				for count[(key(v[rest])-kmin)>>shift] == 0 {
					rest++
				}
				v[next[j]], v[rest] = v[rest], v[next[j]]
			}
		}
	}
	return ts
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
