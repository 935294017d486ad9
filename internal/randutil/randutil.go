// Package randutil provides the deterministic random distributions used by
// the workload generators and the failure/latency injectors.
//
// The paper's evaluation depends on three stochastic shapes: Bernoulli
// failure processes (server failure probability p at any instant, §II-B),
// heavy-tailed per-request latency (the "tail at scale" effect the fan-out
// experiment of Fig 5 measures), and skewed access/table-size distributions
// (zipf query traffic and lognormal table sizes behind Fig 4b/4e).
package randutil

import (
	"math"
	"math/rand"
	"sync"
)

// Source is a deterministic random source with the distribution helpers the
// simulators need. It is NOT safe for concurrent use; create one per
// goroutine or guard externally.
type Source struct {
	rng *rand.Rand
}

// New returns a Source seeded deterministically.
func New(seed int64) *Source {
	return &Source{rng: rand.New(rand.NewSource(seed))}
}

// NewKeyed returns a Source over splitmix64, whose Seed costs nothing:
// reseeded from Hash before each draw, a draw is a function of the hash.
func NewKeyed() *Source { return &Source{rng: rand.New(new(splitMix))} }

// Seed repositions s at seed.
func (s *Source) Seed(seed int64) { s.rng.Seed(seed) }

// Hash mixes a string and words into one seed for Seed.
func Hash(s string, words ...uint64) int64 {
	h := uint64(14695981039346656037) // FNV-1a over s
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 1099511628211
	}
	for _, w := range words {
		h = mix(h ^ w)
	}
	return int64(h)
}

// splitMix is splitmix64 as a rand.Source: a counter, output through mix.
type splitMix uint64

func (m *splitMix) Seed(seed int64) { *m = splitMix(seed) }

func (m *splitMix) Int63() int64 {
	*m += 0x9e3779b97f4a7c15
	return int64(mix(uint64(*m)) >> 1)
}

// mix is splitmix64's finalizer, a bijection on 64-bit words.
func mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Fork returns a new independent Source derived from this one, so
// subsystems can get uncorrelated but reproducible streams.
func (s *Source) Fork() *Source {
	return New(s.rng.Int63())
}

// LockedFloat64 returns a uniform [0,1) sampler backed by a fork of this
// source that is safe for concurrent use — for components (like the query
// proxy) whose callers run in parallel.
func (s *Source) LockedFloat64() func() float64 {
	fork := s.Fork()
	var mu sync.Mutex
	return func() float64 {
		mu.Lock()
		defer mu.Unlock()
		return fork.Float64()
	}
}

// Float64 returns a uniform value in [0,1).
func (s *Source) Float64() float64 { return s.rng.Float64() }

// Intn returns a uniform int in [0,n). It panics if n <= 0.
func (s *Source) Intn(n int) int { return s.rng.Intn(n) }

// Int63 returns a non-negative uniform int64.
func (s *Source) Int63() int64 { return s.rng.Int63() }

// Perm returns a random permutation of [0,n).
func (s *Source) Perm(n int) []int { return s.rng.Perm(n) }

// Shuffle pseudo-randomizes the order of n elements using swap.
func (s *Source) Shuffle(n int, swap func(i, j int)) { s.rng.Shuffle(n, swap) }

// Bernoulli returns true with probability p.
func (s *Source) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return s.rng.Float64() < p
}

// Exp returns an exponentially distributed value with the given mean.
// Exponential interarrival times model memoryless failure processes: a host
// with mean-time-between-failures m fails next after Exp(m).
func (s *Source) Exp(mean float64) float64 {
	return s.rng.ExpFloat64() * mean
}

// Normal returns a normally distributed value with the given mean and
// standard deviation.
func (s *Source) Normal(mean, stddev float64) float64 {
	return s.rng.NormFloat64()*stddev + mean
}

// LogNormal returns a lognormally distributed value where the underlying
// normal has parameters mu and sigma. Table sizes in multi-tenant systems
// are well modeled as lognormal: many small tables, a long tail of large
// ones (paper Fig 4b).
func (s *Source) LogNormal(mu, sigma float64) float64 {
	return math.Exp(s.rng.NormFloat64()*sigma + mu)
}

// Pareto returns a Pareto(xm, alpha) distributed value (xm > 0, alpha > 0).
// Pareto tails model the rare-but-huge latency outliers behind the
// scalability wall.
func (s *Source) Pareto(xm, alpha float64) float64 {
	u := s.rng.Float64()
	for u == 0 {
		u = s.rng.Float64()
	}
	return xm / math.Pow(u, 1/alpha)
}

// Zipf draws values in [0,n) following a Zipf distribution with exponent
// skew > 1. Lower values are more probable. Query traffic across bricks and
// tables is zipf-skewed (paper §IV-F2: "access patterns between data blocks
// are usually skewed").
type Zipf struct {
	z *rand.Zipf
}

// NewZipf returns a Zipf generator over [0,n) with the given skew (s > 1).
func (s *Source) NewZipf(skew float64, n uint64) *Zipf {
	if n == 0 {
		panic("randutil: Zipf over empty range")
	}
	return &Zipf{z: rand.NewZipf(s.rng, skew, 1, n-1)}
}

// Next returns the next zipf-distributed value.
func (z *Zipf) Next() uint64 { return z.z.Uint64() }

// LatencyModel produces per-request service latencies with a heavy tail:
// a lognormal body plus, with probability TailProb, a Pareto-distributed
// slowdown. This mirrors the empirical "tail at scale" shape: medians are
// tight while p999 is orders of magnitude above.
type LatencyModel struct {
	// BaseMu and BaseSigma parameterize the lognormal body, in seconds of
	// log-space (e.g. BaseMu = ln(0.020) for a ~20ms median).
	BaseMu, BaseSigma float64
	// TailProb is the probability a request hits the slow path.
	TailProb float64
	// TailXm and TailAlpha parameterize the Pareto slowdown multiplier.
	TailXm, TailAlpha float64
}

// DefaultLatencyModel returns a model with a ~20ms median and ~1 in 1000
// requests slowed by a Pareto multiplier, calibrated so single-node p999
// is roughly 10x the median, matching the shape of the paper's Fig 5
// low-fan-out series.
func DefaultLatencyModel() LatencyModel {
	return LatencyModel{
		BaseMu:    math.Log(0.020),
		BaseSigma: 0.25,
		TailProb:  0.001,
		TailXm:    5,
		TailAlpha: 1.5,
	}
}

// Sample draws one latency in seconds.
func (m LatencyModel) Sample(s *Source) float64 {
	l := s.LogNormal(m.BaseMu, m.BaseSigma)
	if s.Bernoulli(m.TailProb) {
		l *= s.Pareto(m.TailXm, m.TailAlpha)
	}
	return l
}
