package main

import (
	"math"
	"sort"
)

// quantile is the nearest-rank q-quantile of xs (0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailSamples is how many samples must lie beyond a reported tail.
const tailSamples = 10

// tail is the highest percentile with at least tailSamples samples
// beyond it: the (tailSamples+1)-th largest value. With too few
// samples it falls back to the median.
func tail(xs []float64) float64 {
	if len(xs) <= 2*tailSamples {
		return median(xs)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[len(s)-1-tailSamples]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}
