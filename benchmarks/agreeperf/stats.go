package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy.
func sorted(v []float64) []float64 {
	out := append([]float64(nil), v...)
	sort.Float64s(out)
	return out
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of v,
// or 0 for an empty slice.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// median returns the middle value (mean of the two middle values for an even
// count), or 0 for an empty slice.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// mean returns the arithmetic mean, or 0 for an empty slice.
func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// quartiles returns the first and third quartile with the exclusive method
// of Python's statistics.quantiles(v, n=4), which is what the driver uses.
// Fewer than two values have no spread: both quartiles are the value itself.
func quartiles(v []float64) (q1, q3 float64) {
	if len(v) < 2 {
		return median(v), median(v)
	}
	s := sorted(v)
	at := func(k int) float64 {
		pos := float64(k) * float64(len(s)+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

// spread is the interquartile range as a share of the median.
func spread(v []float64) float64 {
	m := median(v)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(v)
	return (q3 - q1) / math.Abs(m)
}

// summary condenses the samples of one metric.
type summary struct {
	Unit    string    `json:"unit"`
	Value   float64   `json:"value"`
	Min     float64   `json:"min"`
	Max     float64   `json:"max"`
	N       int       `json:"n"`
	Samples []float64 `json:"samples,omitempty"`
}

// summarize builds the summary of a sample set; the median is the value the
// metric reports.
func summarize(unit string, samples []float64) summary {
	s := summary{Unit: unit, N: len(samples), Samples: samples, Value: median(samples)}
	if len(samples) > 0 {
		so := sorted(samples)
		s.Min, s.Max = so[0], so[len(so)-1]
	}
	return s
}

// single is the summary of a metric measured once per run.
func single(unit string, v float64) summary { return summarize(unit, []float64{v}) }

// point is one (n, ns) sample of a scaling series.
type point struct {
	N  int     `json:"n"`
	Ns float64 `json:"ns"`
}

// logLogSlope fits log(ns) = a + b·log(n) by least squares and returns b, the
// growth exponent of the series.
func logLogSlope(pts []point) float64 {
	if len(pts) < 2 {
		return 0
	}
	var sx, sy, sxx, sxy float64
	for _, p := range pts {
		x, y := math.Log(float64(p.N)), math.Log(p.Ns)
		sx, sy, sxx, sxy = sx+x, sy+y, sxx+x*x, sxy+x*y
	}
	k := float64(len(pts))
	den := k*sxx - sx*sx
	if den == 0 {
		return 0
	}
	return (k*sxy - sx*sy) / den
}
