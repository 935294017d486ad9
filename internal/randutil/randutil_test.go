package randutil

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed produced different streams")
		}
	}
}

func TestForkIndependence(t *testing.T) {
	a := New(42)
	f1 := a.Fork()
	b := New(42)
	f2 := b.Fork()
	for i := 0; i < 100; i++ {
		if f1.Float64() != f2.Float64() {
			t.Fatal("forks of identical sources diverged")
		}
	}
}

func TestBernoulliEdges(t *testing.T) {
	s := New(1)
	for i := 0; i < 100; i++ {
		if s.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !s.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
	}
}

func TestBernoulliFrequency(t *testing.T) {
	s := New(7)
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if s.Bernoulli(0.3) {
			hits++
		}
	}
	got := float64(hits) / n
	if math.Abs(got-0.3) > 0.01 {
		t.Fatalf("Bernoulli(0.3) frequency = %v, want ~0.3", got)
	}
}

func TestExpMean(t *testing.T) {
	s := New(3)
	const n = 100000
	var sum float64
	for i := 0; i < n; i++ {
		sum += s.Exp(5)
	}
	mean := sum / n
	if math.Abs(mean-5) > 0.2 {
		t.Fatalf("Exp(5) mean = %v, want ~5", mean)
	}
}

func TestNormalMoments(t *testing.T) {
	s := New(9)
	const n = 100000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		v := s.Normal(10, 2)
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean-10) > 0.1 {
		t.Fatalf("Normal mean = %v, want ~10", mean)
	}
	if math.Abs(math.Sqrt(variance)-2) > 0.1 {
		t.Fatalf("Normal stddev = %v, want ~2", math.Sqrt(variance))
	}
}

func TestLogNormalPositive(t *testing.T) {
	f := func(seed int64) bool {
		s := New(seed)
		for i := 0; i < 100; i++ {
			if s.LogNormal(0, 1) <= 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestLogNormalMedian(t *testing.T) {
	s := New(11)
	const n = 100001
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = s.LogNormal(math.Log(20), 0.5)
	}
	// Median of lognormal(mu, sigma) is exp(mu) = 20.
	count := 0
	for _, v := range vals {
		if v < 20 {
			count++
		}
	}
	frac := float64(count) / n
	if math.Abs(frac-0.5) > 0.01 {
		t.Fatalf("fraction below exp(mu) = %v, want ~0.5", frac)
	}
}

func TestParetoLowerBound(t *testing.T) {
	f := func(seed int64) bool {
		s := New(seed)
		for i := 0; i < 100; i++ {
			if s.Pareto(3, 1.5) < 3 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestParetoHeavyTail(t *testing.T) {
	s := New(13)
	const n = 200000
	over10 := 0
	for i := 0; i < n; i++ {
		if s.Pareto(1, 1.5) > 10 {
			over10++
		}
	}
	// P(X > 10) = 10^-1.5 ≈ 0.0316.
	got := float64(over10) / n
	if math.Abs(got-0.0316) > 0.005 {
		t.Fatalf("Pareto tail mass above 10 = %v, want ~0.0316", got)
	}
}

func TestZipfSkew(t *testing.T) {
	s := New(17)
	z := s.NewZipf(1.2, 1000)
	counts := make([]int, 1000)
	const n = 100000
	for i := 0; i < n; i++ {
		v := z.Next()
		if v >= 1000 {
			t.Fatalf("zipf value %d out of range", v)
		}
		counts[v]++
	}
	if counts[0] <= counts[10] || counts[10] <= counts[100] {
		t.Fatalf("zipf not skewed: c0=%d c10=%d c100=%d", counts[0], counts[10], counts[100])
	}
}

func TestZipfEmptyRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewZipf(_, 0) did not panic")
		}
	}()
	New(1).NewZipf(1.1, 0)
}

func TestLatencyModelShape(t *testing.T) {
	s := New(19)
	m := DefaultLatencyModel()
	const n = 200000
	vals := make([]float64, n)
	for i := range vals {
		v := m.Sample(s)
		if v <= 0 {
			t.Fatal("non-positive latency sample")
		}
		vals[i] = v
	}
	// Median should be near 20ms; p999 should be far above the median.
	below := 0
	for _, v := range vals {
		if v < 0.020 {
			below++
		}
	}
	frac := float64(below) / n
	if math.Abs(frac-0.5) > 0.02 {
		t.Fatalf("median mass = %v, want ~0.5 around 20ms", frac)
	}
	var max float64
	for _, v := range vals {
		if v > max {
			max = v
		}
	}
	if max < 0.1 {
		t.Fatalf("max latency %v too small: tail not heavy", max)
	}
}

func TestPermAndShuffle(t *testing.T) {
	s := New(23)
	p := s.Perm(10)
	seen := make([]bool, 10)
	for _, v := range p {
		if v < 0 || v >= 10 || seen[v] {
			t.Fatalf("invalid permutation %v", p)
		}
		seen[v] = true
	}
	vals := []int{1, 2, 3, 4, 5}
	sum := 0
	s.Shuffle(len(vals), func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
	for _, v := range vals {
		sum += v
	}
	if sum != 15 {
		t.Fatalf("shuffle lost elements: %v", vals)
	}
}

func TestLockedFloat64Concurrent(t *testing.T) {
	f := New(5).LockedFloat64()
	done := make(chan bool, 4)
	for g := 0; g < 4; g++ {
		go func() {
			ok := true
			for i := 0; i < 1000; i++ {
				v := f()
				if v < 0 || v >= 1 {
					ok = false
				}
			}
			done <- ok
		}()
	}
	for g := 0; g < 4; g++ {
		if !<-done {
			t.Fatal("LockedFloat64 out of range")
		}
	}
}

// A keyed source reseeded at one hash replays one draw, whatever was drawn
// in between; a different word moves it.
func TestKeyedReseedReplays(t *testing.T) {
	s := NewKeyed()
	s.Seed(Hash("h1", 7, 1, 0))
	first := s.Float64()
	s.Seed(Hash("h2", 7, 1, 0))
	other := s.Float64()
	s.Seed(Hash("h1", 7, 1, 0))
	if again := s.Float64(); again != first {
		t.Fatalf("reseeded draw %v, first %v", again, first)
	}
	if other == first {
		t.Fatal("two hosts drew the same value")
	}
	var sum float64
	for i := uint64(0); i < 10000; i++ {
		s.Seed(Hash("h1", 7, i, 0))
		sum += s.Float64()
	}
	if mean := sum / 10000; math.Abs(mean-0.5) > 0.02 {
		t.Fatalf("mean of keyed draws = %v, want ~0.5", mean)
	}
}
