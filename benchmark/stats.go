package main

import (
	"math"
	"sort"
	"time"
)

// median returns the middle of xs (mean of the two middle values for an
// even count), or 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// quantile is the nearest-rank p-quantile of xs, 0 for no samples.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[min(max(rank(len(s), p)-1, 0), len(s)-1)]
}

// rank is the 1-based nearest rank of the p-quantile among n samples. The
// epsilon keeps 0.9*100 (90.00000000000001 in binary) at rank 90.
func rank(n int, p float64) int { return int(math.Ceil(p*float64(n) - 1e-9)) }

// supported reports whether n samples carry the p-quantile under the
// reporting rule: a tail percentile is stated only when at least ten
// samples lie beyond it. The median is always stated.
func supported(n int, p float64) bool {
	return p <= 0.5 || n-rank(n, p) >= 10
}

// tail returns the p-quantile of xs, or 0 when the sample is too small to
// support it — a reader of the fixed metric name must never be handed a
// p90 that is really the maximum of a dozen samples.
func tail(xs []float64, p float64) float64 {
	if !supported(len(xs), p) {
		return 0
	}
	return quantile(xs, p)
}

// highestSupported names the highest conventional percentile n samples
// support, for the human-readable report. 0.5 when nothing above it is.
func highestSupported(n int) float64 {
	for _, p := range []float64{0.999, 0.99, 0.95, 0.90, 0.75} {
		if supported(n, p) {
			return p
		}
	}
	return 0.5
}

// selfCost is a rung's wall time minus the rungs below it. It is signed on
// purpose: a negative self cost means the layer's overlap with the ones
// below (a second core, a cheaper code path) outweighed what it added, and
// clamping it to zero would hide exactly that.
func selfCost(wall time.Duration, below ...time.Duration) time.Duration {
	for _, b := range below {
		wall -= b
	}
	return wall
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func perEvent(d time.Duration, events int) float64 {
	if events == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / float64(events)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
