package main

import "testing"

func TestQuantile(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		q    float64
		want float64
	}{
		{nil, 0.5, 0},
		{[]float64{7}, 0.5, 7},
		{[]float64{3, 1, 2}, 0.5, 2},
		{[]float64{4, 1, 3, 2}, 0.5, 2.5},
		{[]float64{1, 2, 3, 4, 5}, 0.25, 2},
		{[]float64{1, 2, 3, 4, 5}, 0.75, 4},
		{[]float64{1, 2, 3, 4}, 0.25, 1.75},
		{[]float64{10, 20}, 1, 20},
		{[]float64{10, 20}, 0, 10},
	} {
		if got := quantile(c.xs, c.q); got != c.want {
			t.Errorf("quantile(%v, %g) = %g, want %g", c.xs, c.q, got, c.want)
		}
	}
	xs := []float64{3, 1, 2}
	median(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("median reordered its input: %v", xs)
	}
}

// TestTailPercentile pins the reporting rule: a percentile is reported
// only when at least ten samples lie beyond it.
func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want int
		ok   bool
	}{
		{0, 0, false},
		{30, 0, false},
		{99, 0, false},
		{100, 900, true},
		{199, 900, true},
		{200, 950, true},
		{999, 950, true},
		{1000, 990, true},
		{2400, 990, true},
		{10000, 999, true},
	} {
		got, ok := tailPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %d, %v; want %d, %v", c.n, got, ok, c.want, c.ok)
		}
	}
}

func TestSummarize(t *testing.T) {
	if got, want := summarize([]float64{1, 2, 3}), "p50 2 ms, tail unresolved (n=3)"; got != want {
		t.Errorf("summarize = %q, want %q", got, want)
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i)
	}
	if got, want := summarize(xs), "p50 49.5 ms, p90 89.1 ms (n=100)"; got != want {
		t.Errorf("summarize = %q, want %q", got, want)
	}
}
