package obs

import (
	"math/bits"
	"sync/atomic"
)

// Counter is a monotonically increasing uint64. The zero value is ready
// to use; all methods are safe for concurrent use and allocation-free.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Gauge is a settable signed value. The zero value is ready to use.
type Gauge struct{ v atomic.Int64 }

// Set stores x.
func (g *Gauge) Set(x int64) { g.v.Store(x) }

// Add adds d (negative to decrement).
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// SetMax raises the gauge to x if x is larger: a high-water mark that
// concurrent writers can only raise.
func (g *Gauge) SetMax(x int64) {
	for {
		cur := g.v.Load()
		if x <= cur || g.v.CompareAndSwap(cur, x) {
			return
		}
	}
}

// histBuckets is the number of power-of-two histogram buckets: bucket i
// holds values whose bit length is i (bucket 0 holds exactly the value
// 0), so bucket boundaries are [0], [1], [2,3], [4,7], ...
const histBuckets = 65

// Histogram accumulates a distribution of uint64 observations in
// power-of-two buckets, with exact count, sum, min, and max. The zero
// value is ready to use; Observe is lock-free and allocation-free.
type Histogram struct {
	count atomic.Uint64
	sum   atomic.Uint64
	// minPlus1 holds min+1 so the zero value means "nothing observed";
	// an observation of MaxUint64 is clamped one below to stay
	// representable.
	minPlus1 atomic.Uint64
	max      atomic.Uint64
	buckets  [histBuckets]atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[bits.Len64(v)].Add(1)
	mv := v + 1
	if mv == 0 {
		mv-- // clamp MaxUint64
	}
	for {
		cur := h.minPlus1.Load()
		if cur != 0 && mv >= cur {
			break
		}
		if h.minPlus1.CompareAndSwap(cur, mv) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if v <= cur {
			break
		}
		if h.max.CompareAndSwap(cur, v) {
			break
		}
	}
}

// Count returns how many values have been observed.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() uint64 { return h.sum.Load() }

// BucketBound returns the inclusive upper bound of bucket i.
func BucketBound(i int) uint64 {
	if i <= 0 {
		return 0
	}
	if i >= 64 {
		return ^uint64(0)
	}
	return 1<<uint(i) - 1
}

// HistogramSnapshot is a point-in-time copy of a Histogram.
type HistogramSnapshot struct {
	// Count and Sum are the totals.
	Count, Sum uint64
	// Min and Max are the observed extremes (zero when Count is 0).
	Min, Max uint64
	// Buckets holds the non-empty buckets in ascending bound order.
	Buckets []BucketCount
}

// BucketCount is one non-empty histogram bucket.
type BucketCount struct {
	// UpperBound is the inclusive upper bound of the bucket.
	UpperBound uint64
	// N is the number of observations in it.
	N uint64
}

// Mean returns the arithmetic mean of the observations (0 when empty).
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// snapshot copies the histogram. Concurrent Observe calls may land
// between the field reads; the result is still a coherent distribution
// for display purposes.
func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Count: h.count.Load(),
		Sum:   h.sum.Load(),
		Max:   h.max.Load(),
	}
	if mp := h.minPlus1.Load(); mp > 0 {
		s.Min = mp - 1
	}
	for i := 0; i < histBuckets; i++ {
		if n := h.buckets[i].Load(); n > 0 {
			s.Buckets = append(s.Buckets, BucketCount{UpperBound: BucketBound(i), N: n})
		}
	}
	return s
}
