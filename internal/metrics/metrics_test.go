package metrics

import (
	"math"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestCounterBasics(t *testing.T) {
	var c Counter
	if got := c.Value(); got != 0 {
		t.Fatalf("zero counter = %d, want 0", got)
	}
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if got := c.Reset(); got != 5 {
		t.Fatalf("Reset returned %d, want 5", got)
	}
	if got := c.Value(); got != 0 {
		t.Fatalf("counter after reset = %d, want 0", got)
	}
}

func TestCounterNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Add(-1) did not panic")
		}
	}()
	var c Counter
	c.Add(-1)
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != 16000 {
		t.Fatalf("concurrent counter = %d, want 16000", got)
	}
}

func TestGaugeSetAdd(t *testing.T) {
	var g Gauge
	g.Set(2.5)
	if got := g.Value(); got != 2.5 {
		t.Fatalf("gauge = %v, want 2.5", got)
	}
	g.Add(-1.5)
	if got := g.Value(); got != 1.0 {
		t.Fatalf("gauge after Add = %v, want 1.0", got)
	}
}

func TestGaugeConcurrentAdd(t *testing.T) {
	var g Gauge
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				g.Add(1)
			}
		}()
	}
	wg.Wait()
	if got := g.Value(); got != 8000 {
		t.Fatalf("concurrent gauge = %v, want 8000", got)
	}
}

func TestEWMAConverges(t *testing.T) {
	e := NewEWMA(0.5)
	if got := e.Value(); got != 0 {
		t.Fatalf("empty EWMA = %v, want 0", got)
	}
	e.Observe(10)
	if got := e.Value(); got != 10 {
		t.Fatalf("first observation = %v, want 10", got)
	}
	for i := 0; i < 50; i++ {
		e.Observe(20)
	}
	if got := e.Value(); math.Abs(got-20) > 1e-6 {
		t.Fatalf("EWMA after repeated 20s = %v, want ~20", got)
	}
}

func TestEWMAInvalidAlpha(t *testing.T) {
	for _, a := range []float64{0, -1, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewEWMA(%v) did not panic", a)
				}
			}()
			NewEWMA(a)
		}()
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := NewLatencyHistogram()
	// Insert 1..1000 milliseconds.
	for i := 1; i <= 1000; i++ {
		h.Observe(float64(i) / 1000)
	}
	if got := h.Count(); got != 1000 {
		t.Fatalf("count = %d, want 1000", got)
	}
	p50 := h.Quantile(0.5)
	if p50 < 0.45 || p50 > 0.56 {
		t.Fatalf("p50 = %v, want ~0.5", p50)
	}
	p99 := h.Quantile(0.99)
	if p99 < 0.9 || p99 > 1.1 {
		t.Fatalf("p99 = %v, want ~0.99", p99)
	}
	if got := h.Quantile(0); got != h.Min() {
		t.Fatalf("q0 = %v, want min %v", got, h.Min())
	}
	if got := h.Quantile(1); got != h.Max() {
		t.Fatalf("q1 = %v, want max %v", got, h.Max())
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := NewLatencyHistogram()
	if h.Quantile(0.5) != 0 || h.Mean() != 0 || h.Max() != 0 || h.Min() != 0 {
		t.Fatal("empty histogram should report zeros")
	}
}

// TestHistogramQuantileAllocs: Quantile reads the live buckets, so asking
// for one allocates nothing, and it answers what Quantiles does from its
// snapshot.
func TestHistogramQuantileAllocs(t *testing.T) {
	h := NewLatencyHistogram()
	for i := 1; i <= 1000; i++ {
		h.Observe(float64(i) * 1e-4)
	}
	if allocs := testing.AllocsPerRun(100, func() { h.Quantile(0.95) }); allocs != 0 {
		t.Fatalf("Quantile allocates %.0f times per call, want 0", allocs)
	}
	qs := []float64{0, 0.01, 0.5, 0.95, 0.999, 1}
	for i, want := range h.Quantiles(qs...) {
		if got := h.Quantile(qs[i]); got != want {
			t.Fatalf("Quantile(%v) = %v, Quantiles says %v", qs[i], got, want)
		}
	}
}

func TestHistogramClamping(t *testing.T) {
	h := NewHistogram(1, 100, 2)
	h.Observe(0.001) // below range
	h.Observe(1e9)   // above range
	if got := h.Count(); got != 2 {
		t.Fatalf("count = %d, want 2", got)
	}
	if h.Max() != 1e9 || h.Min() != 0.001 {
		t.Fatalf("min/max not tracked exactly: min=%v max=%v", h.Min(), h.Max())
	}
}

func TestHistogramReset(t *testing.T) {
	h := NewLatencyHistogram()
	h.Observe(0.5)
	h.Reset()
	if h.Count() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("histogram not cleared by Reset")
	}
}

func TestHistogramInvalidConfig(t *testing.T) {
	for _, c := range []struct{ min, max, g float64 }{
		{0, 1, 2}, {1, 1, 2}, {1, 10, 1}, {-1, 1, 2},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewHistogram(%v,%v,%v) did not panic", c.min, c.max, c.g)
				}
			}()
			NewHistogram(c.min, c.max, c.g)
		}()
	}
}

// Property: for any positive sample, the quantile estimate at rank 1 of a
// single-sample histogram is within one bucket (factor g) of the sample.
func TestHistogramRelativeErrorProperty(t *testing.T) {
	f := func(raw uint32) bool {
		v := 1e-6 + float64(raw%1000000)/1000 // 1µs .. 1000s
		if v <= 0 {
			return true
		}
		h := NewLatencyHistogram()
		h.Observe(v)
		est := h.Quantile(0.5)
		ratio := est / v
		return ratio > 1/1.06 && ratio < 1.06
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: quantiles are monotone in q.
func TestHistogramQuantileMonotoneProperty(t *testing.T) {
	f := func(samples []uint16) bool {
		h := NewLatencyHistogram()
		for _, s := range samples {
			h.Observe(float64(s+1) / 1000)
		}
		prev := -1.0
		for _, q := range []float64{0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1} {
			v := h.Quantile(q)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotFields(t *testing.T) {
	h := NewLatencyHistogram()
	for i := 0; i < 100; i++ {
		h.Observe(0.010)
	}
	s := h.Snapshot()
	if s.Count != 100 {
		t.Fatalf("snapshot count = %d, want 100", s.Count)
	}
	if s.P50 <= 0 || s.P99 < s.P50 {
		t.Fatalf("snapshot quantiles inconsistent: %+v", s)
	}
}

func TestRegistryReuse(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("queries")
	c1.Inc()
	c2 := r.Counter("queries")
	if c2.Value() != 1 {
		t.Fatal("registry did not return the same counter")
	}
	g := r.Gauge("memory")
	g.Set(42)
	if r.Gauge("memory").Value() != 42 {
		t.Fatal("registry did not return the same gauge")
	}
	h := r.Histogram("latency")
	h.Observe(0.5)
	if r.Histogram("latency").Count() != 1 {
		t.Fatal("registry did not return the same histogram")
	}
	names := r.Names()
	if len(names) != 3 {
		t.Fatalf("Names() = %v, want 3 entries", names)
	}
}

func TestTimeSeriesBucketing(t *testing.T) {
	epoch := time.Date(2021, 1, 1, 0, 0, 0, 0, time.UTC)
	ts := NewTimeSeries(epoch, 24*time.Hour)
	ts.Add(epoch.Add(1*time.Hour), 1)
	ts.Add(epoch.Add(25*time.Hour), 2)
	ts.Add(epoch.Add(26*time.Hour), 3)
	ts.Add(epoch.Add(73*time.Hour), 4)
	idx, vals := ts.Buckets()
	wantIdx := []int64{0, 1, 2, 3}
	wantVals := []float64{1, 5, 0, 4}
	if len(idx) != len(wantIdx) {
		t.Fatalf("buckets = %v, want %v", idx, wantIdx)
	}
	for i := range idx {
		if idx[i] != wantIdx[i] || vals[i] != wantVals[i] {
			t.Fatalf("bucket %d = (%d,%v), want (%d,%v)", i, idx[i], vals[i], wantIdx[i], wantVals[i])
		}
	}
}

func TestTimeSeriesBeforeEpoch(t *testing.T) {
	epoch := time.Date(2021, 1, 1, 0, 0, 0, 0, time.UTC)
	ts := NewTimeSeries(epoch, time.Hour)
	ts.Add(epoch.Add(-time.Hour), 7)
	idx, vals := ts.Buckets()
	if len(idx) != 1 || idx[0] != 0 || vals[0] != 7 {
		t.Fatalf("pre-epoch add landed in %v/%v, want bucket 0", idx, vals)
	}
}

func TestTimeSeriesEmpty(t *testing.T) {
	ts := NewTimeSeries(time.Now(), time.Hour)
	if idx, vals := ts.Buckets(); idx != nil || vals != nil {
		t.Fatal("empty series should return nil buckets")
	}
	if s := ts.String(); s != "" {
		t.Fatalf("empty series String() = %q, want empty", s)
	}
}

func TestDistributionQuantiles(t *testing.T) {
	var d Distribution
	if d.Quantile(0.5) != 0 || d.Mean() != 0 {
		t.Fatal("empty distribution should report zeros")
	}
	for i := 1; i <= 100; i++ {
		d.Add(float64(i))
	}
	if d.Len() != 100 {
		t.Fatalf("len = %d, want 100", d.Len())
	}
	if got := d.Quantile(0); got != 1 {
		t.Fatalf("q0 = %v, want 1", got)
	}
	if got := d.Quantile(1); got != 100 {
		t.Fatalf("q1 = %v, want 100", got)
	}
	if got := d.Quantile(0.5); got != 51 {
		t.Fatalf("q0.5 = %v, want 51 (nearest rank)", got)
	}
	if got := d.Mean(); got != 50.5 {
		t.Fatalf("mean = %v, want 50.5", got)
	}
	// Interleave adds and quantiles to exercise re-sorting.
	d.Add(0.5)
	if got := d.Quantile(0); got != 0.5 {
		t.Fatalf("q0 after add = %v, want 0.5", got)
	}
}
