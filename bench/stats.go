package main

import (
	"fmt"
	"sort"
)

// quantile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between the closest ranks; xs need not be sorted and is
// not modified. An empty slice yields 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// minBeyond is how many samples must lie beyond a percentile before it
// is reported: with fewer, the tail is one or two outliers, not a
// percentile.
const minBeyond = 10

// tailPercentiles are the tail percentiles considered, highest first, in
// tenths of a percent.
var tailPercentiles = []int{999, 990, 950, 900}

// tailPercentile returns the highest tail percentile (in tenths of a
// percent) that n samples resolve, i.e. that has at least minBeyond
// samples beyond it; ok is false when n resolves none.
func tailPercentile(n int) (tenths int, ok bool) {
	for _, p := range tailPercentiles {
		if n*(1000-p)/1000 >= minBeyond {
			return p, true
		}
	}
	return 0, false
}

// summarize renders a latency distribution the way the report prints
// it: median, the highest resolved tail, and the sample count.
func summarize(ms []float64) string {
	if len(ms) == 0 {
		return "no samples"
	}
	s := fmt.Sprintf("p50 %.4g ms", median(ms))
	if p, ok := tailPercentile(len(ms)); ok {
		s += fmt.Sprintf(", p%g %.4g ms", float64(p)/10, quantile(ms, float64(p)/1000))
	} else {
		s += ", tail unresolved"
	}
	return s + fmt.Sprintf(" (n=%d)", len(ms))
}
