package main

import (
	"math"
	"sort"
	"time"
)

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// us converts a duration to fractional microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// percentile returns the nearest-rank q-quantile of sorted samples (0 for an
// empty set).
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// median sorts a copy of v and returns its median (the mean of the two middle
// values for an even count, as Python's statistics.median does).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// durations collects duration samples and answers quantiles in a unit.
type durations []time.Duration

// quantile returns the nearest-rank q-quantile converted by unit (ms or us).
func (d durations) quantile(q float64, unit func(time.Duration) float64) float64 {
	s := make([]float64, len(d))
	for i, v := range d {
		s[i] = unit(v)
	}
	sort.Float64s(s)
	return percentile(s, q)
}

// quartiles returns the first and third quartile of v exactly as Python's
// statistics.quantiles(v, n=4) (the default "exclusive" method) computes
// them, so -repeat reports the spread the acceptance rule is written in.
// It needs at least two values.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// spread is the interquartile distance of v as a share of its median.
func spread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	q1, q3 := quartiles(v)
	m := median(v)
	if m == 0 {
		return 0
	}
	return math.Abs(q3-q1) / math.Abs(m)
}
