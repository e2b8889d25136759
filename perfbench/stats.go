package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported percentile: a
// tail percentile resting on fewer is noise, so it is not reported.
const minBeyond = 10

// rank is the nearest-rank index (0-based) of quantile q in n sorted
// samples.
func rank(n int, q float64) int {
	r := int(math.Ceil(q*float64(n))) - 1
	if r < 0 {
		r = 0
	}
	if r >= n {
		r = n - 1
	}
	return r
}

// beyond counts the samples above the nearest-rank quantile q of n.
func beyond(n int, q float64) int {
	if n == 0 {
		return 0
	}
	return n - 1 - rank(n, q)
}

// supported reports whether n samples hold at least minBeyond samples
// beyond quantile q.
func supported(n int, q float64) bool { return beyond(n, q) >= minBeyond }

// quantile returns the nearest-rank quantile q of sorted samples.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[rank(len(sorted), q)]
}

// median returns the median of xs (the mean of the two middle values for
// an even count) without reordering xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// latencySummary is the due-time latency report of an open-loop phase.
type latencySummary struct {
	// Samples counts every latency sample; Windows counts the windows
	// whose samples support a p99 (at least minBeyond beyond it).
	Samples, Windows int
	// P50 and P99 are the medians, over the supported windows, of each
	// window's percentile, in the samples' unit; WindowP50 and WindowP99
	// list every supported window's p50 and p99.
	P50, P99             float64
	WindowP50, WindowP99 []float64
}

// summarizeWindows reports the median over windows of each window's p50
// and p99. A window contributes only when its samples support a p99;
// one long stall then moves one window's figure instead of the whole
// run's, which keeps run-to-run spread low while each reported
// percentile still rests on at least minBeyond samples beyond it. When
// no window qualifies the pooled samples are used if they support a p99;
// ok is false when even they do not.
func summarizeWindows(windows [][]float64) (s latencySummary, ok bool) {
	var p50s, p99s, pooled []float64
	for _, w := range windows {
		s.Samples += len(w)
		pooled = append(pooled, w...)
		if !supported(len(w), 0.99) {
			continue
		}
		sw := sortedCopy(w)
		p50s = append(p50s, quantile(sw, 0.50))
		p99s = append(p99s, quantile(sw, 0.99))
	}
	s.Windows, s.WindowP50, s.WindowP99 = len(p99s), p50s, p99s
	if s.Windows > 0 {
		s.P50, s.P99 = median(p50s), median(p99s)
		return s, true
	}
	if !supported(len(pooled), 0.99) {
		return s, false
	}
	sp := sortedCopy(pooled)
	s.P50, s.P99 = quantile(sp, 0.50), quantile(sp, 0.99)
	return s, true
}
