package main

import (
	"sort"
	"time"
)

// samples collects observations of one quantity. It is not
// internal/stats.Summary because that type's nearest-rank P50 returns the
// smallest of three values and the second of five, and this benchmark
// reports medians of exactly that many set-ups, windows and compactions.
type samples []float64

func (s *samples) add(v float64)                              { *s = append(*s, v) }
func (s *samples) addDur(d time.Duration, unit time.Duration) { s.add(float64(d) / float64(unit)) }

func (s samples) sorted() []float64 {
	out := append([]float64(nil), s...)
	sort.Float64s(out)
	return out
}

// percentile is the nearest-rank percentile (p in (0,1]); 0 when empty.
func (s samples) percentile(p float64) float64 {
	if len(s) == 0 {
		return 0
	}
	v := s.sorted()
	i := int(p*float64(len(v))+0.999999) - 1
	return v[min(max(i, 0), len(v)-1)]
}

func (s samples) median() float64 {
	if len(s) == 0 {
		return 0
	}
	v := s.sorted()
	m := len(v) / 2
	if len(v)%2 == 1 {
		return v[m]
	}
	return (v[m-1] + v[m]) / 2
}

func (s samples) sum() float64 {
	var t float64
	for _, v := range s {
		t += v
	}
	return t
}

func (s samples) mean() float64 {
	if len(s) == 0 {
		return 0
	}
	return s.sum() / float64(len(s))
}

// quartiles mirrors Python's statistics.quantiles(values, n=4) (the
// exclusive method), which is what the acceptance rule for run-to-run
// spread is stated in.
func quartiles(values []float64) (q1, q2, q3 float64) {
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	ld := len(v)
	if ld < 2 {
		if ld == 1 {
			return v[0], v[0], v[0]
		}
		return 0, 0, 0
	}
	cut := func(i int) float64 {
		const n = 4
		j := i * (ld + 1) / n
		j = min(max(j, 1), ld-1)
		delta := i*(ld+1) - j*n
		return (v[j-1]*float64(n-delta) + v[j]*float64(delta)) / n
	}
	return cut(1), cut(2), cut(3)
}
