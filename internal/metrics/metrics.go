// Package metrics provides the lightweight instrumentation primitives used
// throughout the repository: counters, gauges, exponentially weighted moving
// averages, log-bucketed histograms with percentile estimation, fixed-window
// time series and a named registry.
//
// Shard Manager load balancing consumes per-shard gauges exported by
// application servers (paper §III-A3), and the benchmark harness uses
// histograms to report the latency distributions of the fan-out experiment
// (paper Fig 5).
package metrics

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing counter safe for concurrent use.
type Counter struct {
	v atomic.Int64
}

// Inc adds one to the counter.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds delta (which must be non-negative) to the counter.
func (c *Counter) Add(delta int64) {
	if delta < 0 {
		panic("metrics: negative delta added to Counter")
	}
	c.v.Add(delta)
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Reset sets the counter back to zero and returns the previous value.
func (c *Counter) Reset() int64 { return c.v.Swap(0) }

// Gauge is an instantaneous value that may go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v as the current gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adjusts the gauge by delta. Add is lock-free but not atomic with
// respect to concurrent Set calls; callers that mix Set and Add must
// serialize externally.
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// EWMA is an exponentially weighted moving average. The paper notes that
// spiky metrics (such as CPU usage) must be smoothed by the application
// before being exported to SM for load balancing (§III-A3, "Support for
// dynamic shards").
type EWMA struct {
	mu    sync.Mutex
	alpha float64
	value float64
	init  bool
}

// NewEWMA returns an EWMA with smoothing factor alpha in (0, 1]. Larger
// alpha weighs recent observations more heavily.
func NewEWMA(alpha float64) *EWMA {
	if alpha <= 0 || alpha > 1 {
		panic(fmt.Sprintf("metrics: EWMA alpha %v out of (0,1]", alpha))
	}
	return &EWMA{alpha: alpha}
}

// Observe folds a new sample into the average.
func (e *EWMA) Observe(v float64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.init {
		e.value, e.init = v, true
		return
	}
	e.value = e.alpha*v + (1-e.alpha)*e.value
}

// Value returns the current smoothed value (zero before any observation).
func (e *EWMA) Value() float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.value
}

// Histogram records float64 observations into logarithmic buckets and
// supports percentile queries with bounded relative error. It is safe for
// concurrent use, and the observation path is lock-free (atomic bucket
// increments plus CAS loops for the float aggregates), so it can sit on
// the coordinator's per-fetch hot path without serializing the fan-out.
//
// Buckets span [min, max] with growth factor g per bucket; observations
// outside the range are clamped into the first or last bucket. The default
// configuration (see NewLatencyHistogram) covers 1µs..1000s with ~5%
// relative error, sufficient to reproduce the log-scale latency axis of the
// paper's Fig 5.
//
// Readers (Quantile, Snapshot, WritePrometheus) take a point-in-time view
// by loading each bucket once; a read that races an Observe may miss that
// single in-flight sample, which is the standard trade for lock-freedom.
type Histogram struct {
	min     float64
	growth  float64 // log(g), precomputed
	buckets []atomic.Int64
	count   atomic.Int64
	sum     atomic.Uint64 // float64 bits, CAS-added
	maxSeen atomic.Uint64 // float64 bits, CAS-maxed
	minSeen atomic.Uint64 // float64 bits, CAS-minned
}

// NewHistogram returns a histogram over [min, max] with the given per-bucket
// growth factor g (>1). It panics on invalid arguments.
func NewHistogram(min, max, g float64) *Histogram {
	if min <= 0 || max <= min || g <= 1 {
		panic(fmt.Sprintf("metrics: invalid histogram config min=%v max=%v g=%v", min, max, g))
	}
	n := int(math.Ceil(math.Log(max/min)/math.Log(g))) + 1
	h := &Histogram{
		min:     min,
		growth:  math.Log(g),
		buckets: make([]atomic.Int64, n),
	}
	h.minSeen.Store(math.Float64bits(math.Inf(1)))
	h.maxSeen.Store(math.Float64bits(math.Inf(-1)))
	return h
}

// NewLatencyHistogram returns a histogram suitable for recording latencies
// expressed in seconds, covering 1µs to 1000s at ~5% relative error.
func NewLatencyHistogram() *Histogram {
	return NewHistogram(1e-6, 1e3, 1.05)
}

func (h *Histogram) bucketFor(v float64) int {
	if v <= h.min {
		return 0
	}
	i := int(math.Log(v/h.min) / h.growth)
	if i >= len(h.buckets) {
		i = len(h.buckets) - 1
	}
	return i
}

// bucketValue returns the representative (geometric-mean) value of bucket i.
func (h *Histogram) bucketValue(i int) float64 {
	lo := h.min * math.Exp(float64(i)*h.growth)
	hi := h.min * math.Exp(float64(i+1)*h.growth)
	return math.Sqrt(lo * hi)
}

// casAdd folds delta into a float64 stored as bits in a.
func casAdd(a *atomic.Uint64, delta float64) {
	for {
		old := a.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if a.CompareAndSwap(old, next) {
			return
		}
	}
}

// casMin/casMax lower/raise a float64 stored as bits in a to include v.
func casMin(a *atomic.Uint64, v float64) {
	for {
		old := a.Load()
		if v >= math.Float64frombits(old) {
			return
		}
		if a.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

func casMax(a *atomic.Uint64, v float64) {
	for {
		old := a.Load()
		if v <= math.Float64frombits(old) {
			return
		}
		if a.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Observe records one sample. Lock-free.
func (h *Histogram) Observe(v float64) {
	h.buckets[h.bucketFor(v)].Add(1)
	h.count.Add(1)
	casAdd(&h.sum, v)
	casMax(&h.maxSeen, v)
	casMin(&h.minSeen, v)
}

// Count returns the number of recorded samples.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all recorded samples.
func (h *Histogram) Sum() float64 {
	if h.count.Load() == 0 {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// Mean returns the arithmetic mean of all samples (zero when empty).
func (h *Histogram) Mean() float64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return math.Float64frombits(h.sum.Load()) / float64(n)
}

// Max returns the largest observed sample (zero when empty).
func (h *Histogram) Max() float64 {
	if h.count.Load() == 0 {
		return 0
	}
	return math.Float64frombits(h.maxSeen.Load())
}

// Min returns the smallest observed sample (zero when empty).
func (h *Histogram) Min() float64 {
	if h.count.Load() == 0 {
		return 0
	}
	return math.Float64frombits(h.minSeen.Load())
}

// loadBuckets copies the current bucket counts and their total. The total
// is computed from the copy (not h.count) so rank arithmetic is internally
// consistent even when reads race observations.
func (h *Histogram) loadBuckets() (buckets []int64, total int64) {
	buckets = make([]int64, len(h.buckets))
	for i := range h.buckets {
		buckets[i] = h.buckets[i].Load()
		total += buckets[i]
	}
	return buckets, total
}

// Quantile returns an estimate of the q-quantile (q in [0,1]) of the
// recorded distribution, or zero when the histogram is empty. It reads the
// live buckets twice instead of copying them — once for the total, once to
// find the rank — so it allocates nothing (the coordinator asks for one on
// fetches that may hedge).
func (h *Histogram) Quantile(q float64) float64 {
	var total int64
	for i := range h.buckets {
		total += h.buckets[i].Load()
	}
	return h.quantileFrom(func(i int) int64 { return h.buckets[i].Load() }, total, q)
}

// quantileFrom finds the q-quantile over the bucket counts count reads,
// total being their sum. Should the counts have moved since total was
// taken (a Reset racing the read), a rank beyond them clamps to the last
// non-empty bucket.
func (h *Histogram) quantileFrom(count func(i int) int64, total int64, q float64) float64 {
	if total == 0 {
		return 0
	}
	minSeen := math.Float64frombits(h.minSeen.Load())
	maxSeen := math.Float64frombits(h.maxSeen.Load())
	if q <= 0 {
		return minSeen
	}
	if q >= 1 {
		return maxSeen
	}
	rank := int64(math.Ceil(q * float64(total)))
	var cum int64
	last := -1
	for i := range h.buckets {
		if n := count(i); n > 0 {
			cum, last = cum+n, i
			if cum >= rank {
				break
			}
		}
	}
	if last < 0 {
		return 0
	}
	// Clamp the bucket estimate to the exact observed range so quantiles
	// remain consistent with Min/Max.
	return math.Min(math.Max(h.bucketValue(last), minSeen), maxSeen)
}

// Quantiles returns estimates for several quantiles at once, from a single
// point-in-time view of the buckets.
func (h *Histogram) Quantiles(qs ...float64) []float64 {
	buckets, total := h.loadBuckets()
	out := make([]float64, len(qs))
	for i, q := range qs {
		out[i] = h.quantileFrom(func(i int) int64 { return buckets[i] }, total, q)
	}
	return out
}

// Merge folds other's samples into h. Both histograms must share the same
// bucket configuration (min, max, growth). Bucket counts, the sample
// count, the sum and the observed min/max merge exactly, so a merged
// histogram answers every query identically to one that observed the
// union of samples. Merge is safe against concurrent Observe on h, but
// other should be quiescent for an exact result.
func (h *Histogram) Merge(other *Histogram) error {
	if other == nil {
		return nil
	}
	if h.min != other.min || h.growth != other.growth || len(h.buckets) != len(other.buckets) {
		return fmt.Errorf("metrics: merging histograms with different configs (min %v vs %v, %d vs %d buckets)",
			h.min, other.min, len(h.buckets), len(other.buckets))
	}
	n := other.count.Load()
	if n == 0 {
		return nil
	}
	for i := range other.buckets {
		if v := other.buckets[i].Load(); v != 0 {
			h.buckets[i].Add(v)
		}
	}
	h.count.Add(n)
	casAdd(&h.sum, math.Float64frombits(other.sum.Load()))
	casMax(&h.maxSeen, math.Float64frombits(other.maxSeen.Load()))
	casMin(&h.minSeen, math.Float64frombits(other.minSeen.Load()))
	return nil
}

// Reset clears all recorded samples. Reset racing concurrent Observe
// calls may leave a partial sample behind; quiesce writers for an exact
// zero state.
func (h *Histogram) Reset() {
	for i := range h.buckets {
		h.buckets[i].Store(0)
	}
	h.count.Store(0)
	h.sum.Store(0)
	h.minSeen.Store(math.Float64bits(math.Inf(1)))
	h.maxSeen.Store(math.Float64bits(math.Inf(-1)))
}

// Snapshot is an immutable copy of a histogram's summary statistics.
type Snapshot struct {
	Count              int64
	Mean, Min, Max     float64
	P50, P90, P95, P99 float64
	P999, P9999        float64
}

// Snapshot returns a summary of the current distribution.
func (h *Histogram) Snapshot() Snapshot {
	qs := h.Quantiles(0.5, 0.9, 0.95, 0.99, 0.999, 0.9999)
	return Snapshot{
		Count: h.Count(),
		Mean:  h.Mean(),
		Min:   h.Min(),
		Max:   h.Max(),
		P50:   qs[0], P90: qs[1], P95: qs[2], P99: qs[3], P999: qs[4], P9999: qs[5],
	}
}

// Registry is a named collection of metrics. The zero value is ready to use.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Counter returns the counter registered under name, creating it if needed.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.counters == nil {
		r.counters = make(map[string]*Counter)
	}
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge registered under name, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.gauges == nil {
		r.gauges = make(map[string]*Gauge)
	}
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the latency histogram registered under name, creating a
// default latency histogram if needed.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.histograms == nil {
		r.histograms = make(map[string]*Histogram)
	}
	h, ok := r.histograms[name]
	if !ok {
		h = NewLatencyHistogram()
		r.histograms[name] = h
	}
	return h
}

// CounterValues returns a snapshot of all counter values by name. It backs
// operational endpoints (the coordinator's /stats) and benchmark dumps.
func (r *Registry) CounterValues() map[string]int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]int64, len(r.counters))
	for n, c := range r.counters {
		out[n] = c.Value()
	}
	return out
}

// Names returns the sorted names of all registered metrics.
func (r *Registry) Names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	var names []string
	for n := range r.counters {
		names = append(names, n)
	}
	for n := range r.gauges {
		names = append(names, n)
	}
	for n := range r.histograms {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
