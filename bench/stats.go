package main

import (
	"math"
	"sort"
)

// summary is the spread of one metric's samples.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// IQRShare is the interquartile range as a share of the median (0 for
// an empty or zero-median summary).
func (s summary) IQRShare() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Median)
}

// summarize returns the median and quartiles of vs. The quartiles use
// the "exclusive" method of Python's statistics.quantiles(n=4), the
// definition the regression bounds are stated in; fewer than two
// samples give Q1 = Q3 = the median.
func summarize(vs []float64) summary {
	if len(vs) == 0 {
		return summary{}
	}
	d := append([]float64(nil), vs...)
	sort.Float64s(d)
	s := summary{Median: median(d), N: len(d)}
	if len(d) < 2 {
		s.Q1, s.Q3 = s.Median, s.Median
		return s
	}
	s.Q1, s.Q3 = quartile(d, 1), quartile(d, 3)
	return s
}

// quartile is statistics.quantiles(sorted, n=4, method="exclusive")[i-1].
func quartile(sorted []float64, i int) float64 {
	ld := len(sorted)
	m := ld + 1
	j := i * m / 4
	if j < 1 {
		j = 1
	}
	if j > ld-1 {
		j = ld - 1
	}
	delta := float64(i*m - j*4)
	return (sorted[j-1]*(4-delta) + sorted[j]*delta) / 4
}

// median of an unsorted slice (0 when empty).
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	d := append([]float64(nil), vs...)
	sort.Float64s(d)
	n := len(d)
	if n%2 == 1 {
		return d[n/2]
	}
	return (d[n/2-1] + d[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100)
// of an unsorted slice (0 when empty).
func percentile(vs []float64, p float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	d := append([]float64(nil), vs...)
	sort.Float64s(d)
	k := int(math.Ceil(p/100*float64(len(d)))) - 1
	if k < 0 {
		k = 0
	}
	return d[k]
}
