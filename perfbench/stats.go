package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail is the highest percentile of xs that has at least minBeyond samples
// strictly above it (nearest-rank). It returns the value, the percentile and
// whether xs was large enough; with fewer than minBeyond+1 samples there is
// no such percentile and it returns the maximum with ok=false.
func tail(xs []float64, minBeyond int) (value, pct float64, ok bool) {
	if len(xs) == 0 {
		return 0, 0, false
	}
	s := sorted(xs)
	n := len(s)
	if n <= minBeyond {
		return s[n-1], 100, false
	}
	rank := n - minBeyond // 1-based rank; minBeyond samples lie above it
	pct = math.Floor(float64(rank)/float64(n)*1000) / 10
	return s[rank-1], pct, true
}

// quantile is the nearest-rank q-quantile of xs (0 <= q <= 1).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
