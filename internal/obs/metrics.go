package obs

import (
	"math"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing integer metric. The zero value is
// ready to use; all methods are no-ops on a nil receiver, so handles
// obtained from a nil *Registry cost one pointer check per update.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
//
//trnglint:hotpath
func (c *Counter) Inc() { c.Add(1) }

// Add adds n to the counter.
//
//trnglint:hotpath
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 on a nil counter).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a metric that can go up and down. The zero value reads 0; all
// methods are no-ops on a nil receiver.
type Gauge struct {
	bits atomic.Uint64 // math.Float64bits of the current value
}

// Set replaces the gauge value.
//
//trnglint:hotpath
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add adjusts the gauge by delta (negative deltas decrease it).
//
//trnglint:hotpath
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		cur := math.Float64frombits(old)
		if g.bits.CompareAndSwap(old, math.Float64bits(cur+delta)) {
			return
		}
	}
}

// Value returns the current gauge value (0 on a nil gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into fixed buckets. The bucket upper
// bounds are set at registration and never change — deterministic by
// construction, so the same stream of observations always lands in the
// same cells regardless of arrival timing. All methods are no-ops on a nil
// receiver.
type Histogram struct {
	mu sync.Mutex
	// bounds is the ascending upper bounds; an implicit +Inf bucket
	// follows. Read-only after construction, so it needs no guard.
	bounds []float64
	// counts has len(bounds)+1 cells: counts[i] observes v <= bounds[i].
	//trnglint:guardedby mu
	counts []uint64
	//trnglint:guardedby mu
	sum float64
	//trnglint:guardedby mu
	n uint64
}

func newHistogram(bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obs: histogram bucket bounds must be strictly ascending")
		}
	}
	return &Histogram{
		bounds: bounds,
		counts: make([]uint64, len(bounds)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i]++
	h.sum += v
	h.n++
	h.mu.Unlock()
}

// snapshot returns a consistent copy of the histogram state.
func (h *Histogram) snapshot() (counts []uint64, sum float64, n uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]uint64(nil), h.counts...), h.sum, h.n
}

// Count returns the total number of observations (0 on a nil histogram).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.n
}

// Sum returns the sum of all observed values (0 on a nil histogram).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// Pow2Buckets returns the power-of-two upper bounds 2^lo .. 2^hi — the
// natural deterministic scale for instruction counts, bus reads and other
// integer costs whose dynamic range spans the paper's three sequence
// lengths.
func Pow2Buckets(lo, hi uint) []float64 {
	if hi < lo {
		lo, hi = hi, lo
	}
	out := make([]float64, 0, hi-lo+1)
	for e := lo; e <= hi; e++ {
		out = append(out, float64(uint64(1)<<e))
	}
	return out
}

// ExpBuckets returns n exponentially growing upper bounds starting at
// start, each factor times the previous — the conventional scale for
// wall-clock latencies observed at the CLI boundary.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("obs: ExpBuckets needs start > 0, factor > 1, n >= 1")
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}
