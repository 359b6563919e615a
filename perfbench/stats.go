package main

import (
	"math"
	"math/rand"
	"slices"
	"syscall"
)

// median of xs (the mean of the middle two for an even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Sorted(slices.Values(xs))
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// percentile is the nearest-rank p-quantile of xs, 0 < p ≤ 1.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Sorted(slices.Values(xs))
	i := int(math.Ceil(p*float64(len(s)))) - 1
	return s[max(i, 0)]
}

// peakRSSMB is the process's peak resident set, in MB (10^6 bytes).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
}

// subSeed derives an independent generator seed for input i of a run.
func subSeed(seed int64, i int) int64 {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(i))).Int63()
}

// edgeList returns the edges of an n-vertex graph in a seeded random order
// with seeded random endpoint order, as a user would hand them over.
func edgeList(edges [][2]int, seed int64) [][2]int {
	rng := rand.New(rand.NewSource(seed))
	out := slices.Clone(edges)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	for i := range out {
		if rng.Intn(2) == 1 {
			out[i][0], out[i][1] = out[i][1], out[i][0]
		}
	}
	return out
}
