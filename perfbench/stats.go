package main

import (
	"math"
	"sort"
	"time"
)

// samples is a set of durations, summarised by order statistics.
type samples []time.Duration

// quantile returns the q-quantile (0 ≤ q ≤ 1) by linear interpolation
// between closest ranks; 0 for an empty set.
func (s samples) quantile(q float64) time.Duration {
	if len(s) == 0 {
		return 0
	}
	c := append(samples(nil), s...)
	sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
	pos := q * float64(len(c)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return c[lo] + time.Duration(frac*float64(c[hi]-c[lo]))
}

func (s samples) median() time.Duration { return s.quantile(0.5) }

// sum totals the set.
func (s samples) sum() time.Duration {
	var t time.Duration
	for _, d := range s {
		t += d
	}
	return t
}

// mean is the arithmetic mean; 0 for an empty set.
func (s samples) mean() time.Duration {
	if len(s) == 0 {
		return 0
	}
	return s.sum() / time.Duration(len(s))
}

// medianFloat is the median of plain numbers; 0 for an empty set.
func medianFloat(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	n := len(c)
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
