// Package stats provides the lightweight metric primitives the
// simulator components publish into: counters, distributions, and the
// derived quantities the paper's figures report (network utilization,
// average latencies, MPKI, flit occupancy shares).
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"netcrafter/internal/obs"
)

// Counter is a monotonically increasing count.
type Counter struct{ n int64 }

// Add increases the counter by d (d must be non-negative).
func (c *Counter) Add(d int64) {
	if d < 0 {
		panic("stats: Counter.Add with negative delta")
	}
	c.n += d
}

// Inc increases the counter by one.
func (c *Counter) Inc() { c.n++ }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.n }

// Sampler accumulates scalar observations (e.g. latencies) and exposes
// count/mean/min/max plus log-bucketed percentile estimates. It does
// not retain individual samples: distributions live in obs.LogBuckets,
// so Mean/Min/Max are exact while Percentile is a bucket-resolution
// estimate (within 2x). Samples are non-negative; negative observations
// clamp to 0.
type Sampler struct {
	b    obs.LogBuckets
	min  float64
	some bool
}

// Observe records one sample.
func (s *Sampler) Observe(v float64) {
	if v < 0 {
		v = 0
	}
	s.b.Observe(v)
	if !s.some || v < s.min {
		s.min = v
	}
	s.some = true
}

// Count returns the number of samples.
func (s *Sampler) Count() int64 { return s.b.Count() }

// Mean returns the sample mean (0 with no samples).
func (s *Sampler) Mean() float64 { return s.b.Mean() }

// Sum returns the total of all samples.
func (s *Sampler) Sum() float64 { return s.b.Sum() }

// Max returns the largest sample (0 with no samples).
func (s *Sampler) Max() float64 { return s.b.Max() }

// Min returns the smallest sample (0 with no samples).
func (s *Sampler) Min() float64 {
	if !s.some {
		return 0
	}
	return s.min
}

// Percentile estimates the q-quantile (q in [0,1]) from the
// log-bucketed distribution; exact at q=1 (the max).
func (s *Sampler) Percentile(q float64) float64 { return s.b.Quantile(q) }

// P50 estimates the median.
func (s *Sampler) P50() float64 { return s.Percentile(0.50) }

// P99 estimates the 99th percentile.
func (s *Sampler) P99() float64 { return s.Percentile(0.99) }

// Buckets returns a copy of the underlying log-bucketed distribution,
// for merging into obs aggregates.
func (s *Sampler) Buckets() obs.LogBuckets { return s.b }

// Histogram is a bucketed distribution over named categories. Buckets
// are numbered in registration order, so a hot path whose categories
// are an enum registered up front can count through ObserveAt without
// hashing a name; the name-keyed API reads the same counts.
type Histogram struct {
	counts []int64
	order  []string
	index  map[string]int
}

// NewHistogram returns a histogram with the given bucket order (extra
// buckets observed later are appended). The i-th name is bucket i for
// ObserveAt.
func NewHistogram(buckets ...string) *Histogram {
	h := &Histogram{index: make(map[string]int, len(buckets))}
	for _, b := range buckets {
		h.bucket(b)
	}
	return h
}

// bucket returns the index of the named bucket, registering it last if
// it is new.
func (h *Histogram) bucket(name string) int {
	i, ok := h.index[name]
	if !ok {
		i = len(h.order)
		h.index[name] = i
		h.order = append(h.order, name)
		h.counts = append(h.counts, 0)
	}
	return i
}

// Observe adds n to the named bucket.
func (h *Histogram) Observe(bucket string, n int64) { h.counts[h.bucket(bucket)] += n }

// ObserveAt adds n to bucket i, numbered in registration order. It
// panics when bucket i has not been registered.
func (h *Histogram) ObserveAt(i int, n int64) { h.counts[i] += n }

// Get returns the count in a bucket.
func (h *Histogram) Get(bucket string) int64 {
	if i, ok := h.index[bucket]; ok {
		return h.counts[i]
	}
	return 0
}

// Total returns the sum over all buckets.
func (h *Histogram) Total() int64 {
	var t int64
	for _, v := range h.counts {
		t += v
	}
	return t
}

// Share returns bucket/total in [0,1] (0 when empty).
func (h *Histogram) Share(bucket string) float64 {
	t := h.Total()
	if t == 0 {
		return 0
	}
	return float64(h.Get(bucket)) / float64(t)
}

// Buckets returns bucket names in observation order.
func (h *Histogram) Buckets() []string { return h.order }

// String renders "name=count" pairs for debugging.
func (h *Histogram) String() string {
	var b strings.Builder
	for i, name := range h.order {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%d", name, h.counts[i])
	}
	return b.String()
}

// GeoMean returns the geometric mean of xs, the standard aggregate for
// normalized speedups. Zero and negative entries are rejected.
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			panic(fmt.Sprintf("stats: GeoMean of non-positive value %v", x))
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// Mean returns the arithmetic mean of xs (0 when empty).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// SortedKeys returns the keys of m in sorted order; helper for
// deterministic report printing.
func SortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
