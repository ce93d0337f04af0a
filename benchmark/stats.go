package main

import (
	"math"
	"sort"

	"bnff/internal/tensor"
)

// median returns the middle of xs (mean of the two middles for an even
// count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of an
// ascending-sorted sample.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p/100*float64(len(sorted)) - 1e-9)) // 0.9·100 must not round up to 91
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// goodQuartile returns the nearest-rank quartile on the good side of xs: the
// 75th percentile when higher is better, the 25th when lower is. It is how a
// run condenses the short samples of a throughput metric (training blocks,
// closed-loop chunks), of which a run has from eight to forty, so it is the
// third to eleventh best sample, never the best.
//
// The median is the wrong statistic on the shared 2-vCPU VM this benchmark
// gates on. What the neighbours do only ever slows a sample, and it comes in
// stretches of seconds that take a third off a core and cover anything from
// none to most of a run: the share of slowed samples decides where the median
// lands, so it reads the neighbours, while the good quartile keeps reading
// the code as long as a quarter of the samples ran undisturbed (NOISE.md has
// both statistics from the same runs; for the open loop's window medians the
// median came out the steadier, so that metric keeps it). A regression in the
// code slows every sample, the fast ones too.
func goodQuartile(xs []float64, higherIsBetter bool) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if higherIsBetter {
		return percentile(s, 75)
	}
	return percentile(s, 25)
}

func maxOf(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

// reportable lists the percentiles a latency line may quote, ascending.
var reportable = []float64{50, 90, 95, 99, 99.9}

// highestPercentile returns the highest reportable percentile that still has
// at least ten samples beyond it in a sample of n; below that a percentile is
// one or two outliers, not a statistic. With fewer than 20 samples only the
// median is supported.
func highestPercentile(n int) float64 {
	best := reportable[0]
	for _, p := range reportable {
		if rank := int(math.Ceil(p/100*float64(n) - 1e-9)); n-rank >= 10 {
			best = p
		}
	}
	return best
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (the exclusive method), so NOISE.md and
// the driver's acceptance rule compute the same spread.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	if ld < 2 {
		return median(s), median(s)
	}
	at := func(i int) float64 {
		const n = 4
		m := ld + 1
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return at(1), at(3)
}

// arrivals is a seeded open-loop schedule: when each request is due, as an
// offset from the phase start, and which image it carries.
type arrivals struct {
	dueNs []int64
	image []int
}

// poissonSchedule draws a Poisson arrival process at ratePerS over durNs. It
// is a pure function of its arguments: the same seed gives the same schedule.
func poissonSchedule(seed uint64, ratePerS float64, durNs int64, images int) arrivals {
	rng := tensor.NewRNG(seed)
	var a arrivals
	t := 0.0
	for {
		t += -math.Log(1-rng.Float64()) / ratePerS * 1e9
		if int64(t) >= durNs {
			return a
		}
		a.dueNs = append(a.dueNs, int64(t))
		a.image = append(a.image, rng.Intn(images))
	}
}
