package main

import (
	"math"
	"sort"
	"syscall"
	"time"
)

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of xs:
// the smallest sample with at least q·n samples at or below it. It
// sorts a copy, so callers may pass live slices. Empty input yields 0.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(s) {
		rank = len(s) - 1
	}
	return s[rank]
}

// median is the middle sample, or the mean of the two middle samples
// for an even count — the statistic reported for repeated set-ups and
// per-period figures, where sample counts are small.
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

// mean is the arithmetic mean; empty input yields 0.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// peakRSSMB reports the process's peak resident set size in MiB
// (getrusage ru_maxrss, which Linux reports in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
