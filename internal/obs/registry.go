package obs

import (
	"fmt"
	"io"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"

	"bnff/internal/det"
)

// Registry is a process-local metrics registry: named counters, gauges, and
// power-of-two histograms. Handles are cheap atomics safe for concurrent
// update (serving replicas increment them on the request path); the registry
// itself is locked only on registration and snapshot. Like the Tracer, a nil
// *Registry is the disabled state — every method, including those on the
// handles it returns, no-ops without allocating.
//
// Exposition (WriteText) iterates names in sorted order, so the /metrics
// payload for a given counter history is byte-identical run to run — the
// same determinism contract the rest of the module keeps.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter is a monotonically increasing count.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by delta (negative deltas are ignored —
// counters only go up).
func (c *Counter) Add(delta int64) {
	if c == nil || delta <= 0 {
		return
	}
	c.v.Add(delta)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous integer level (queue depth, batch occupancy).
type Gauge struct{ v atomic.Int64 }

// Set replaces the gauge's value.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Value returns the current level.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// histBuckets is the power-of-two bucket count: an observation of n lands in
// bucket bits.Len64(n), so bucket i covers [2^(i-1), 2^i) and the quantile
// read is a pure function of the observation multiset. internal/serve's
// /stats latency quantiles read this histogram.
const histBuckets = 65

// Histogram counts observations in power-of-two buckets (nanoseconds by
// convention, but any non-negative int64 works).
type Histogram struct {
	buckets [histBuckets]atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Int64
}

// Observe records one value; negative values clamp to zero.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.buckets[bits.Len64(uint64(v))].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the running total of observed values.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Quantile returns the upper bound of the first bucket whose cumulative
// count reaches the q-quantile rank, or 0 with no observations.
func (h *Histogram) Quantile(q float64) int64 {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i := range h.buckets {
		cum += h.buckets[i].Load()
		if cum >= rank {
			return histBucketUpper(i)
		}
	}
	return histBucketUpper(histBuckets - 1)
}

// histBucketUpper is the largest value bucket i can hold (top buckets
// saturate at MaxInt64).
func histBucketUpper(i int) int64 {
	if i >= 63 {
		return math.MaxInt64
	}
	return int64(1)<<uint(i) - 1
}

// Counter returns (registering on first use) the named counter. Nil registry
// returns a nil handle, whose methods no-op.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns (registering on first use) the named gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns (registering on first use) the named histogram.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// WriteText writes the registry in the Prometheus text exposition format:
// a "# TYPE" line per metric followed by its samples, counters first, then
// gauges, then histograms, each group in sorted-name order. Histograms emit
// cumulative power-of-two buckets up to the highest occupied one plus the
// mandatory +Inf bucket, then _sum and _count.
func (r *Registry) WriteText(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, name := range det.SortedKeys(r.counters) {
		if _, err := fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", name, name, r.counters[name].Value()); err != nil {
			return err
		}
	}
	for _, name := range det.SortedKeys(r.gauges) {
		if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n%s %d\n", name, name, r.gauges[name].Value()); err != nil {
			return err
		}
	}
	for _, name := range det.SortedKeys(r.hists) {
		if err := writeHistText(w, name, r.hists[name]); err != nil {
			return err
		}
	}
	return nil
}

func writeHistText(w io.Writer, name string, h *Histogram) error {
	if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", name); err != nil {
		return err
	}
	top := -1
	for i := range h.buckets {
		if h.buckets[i].Load() > 0 {
			top = i
		}
	}
	var cum uint64
	for i := 0; i <= top; i++ {
		cum += h.buckets[i].Load()
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"%d\"} %d\n", name, histBucketUpper(i), cum); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, h.Count()); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_sum %d\n%s_count %d\n", name, h.Sum(), name, h.Count())
	return err
}
