// Package hll implements HyperLogLog cardinality sketches, the mechanism
// behind COUNT(DISTINCT dim) in interactive analytic engines: per-partition
// sketches are tiny, merge losslessly on the query coordinator (a register
// -wise max), and estimate distinct counts within ~1.6% at the default
// precision — exactly the partial-result shape Cubrick's scatter-gather
// needs.
package hll

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
)

// Precision is the number of index bits p; the sketch uses 2^p one-byte
// registers. p=12 gives 4096 registers and ~1.6% standard error.
const Precision = 12

const m = 1 << Precision

// alpha is the bias-correction constant for m ≥ 128.
var alpha = 0.7213 / (1 + 1.079/float64(m))

// Sketch is a HyperLogLog cardinality estimator. The zero value is NOT
// ready; use New. Sketch is not safe for concurrent use.
type Sketch struct {
	registers [m]uint8
}

// New returns an empty sketch.
func New() *Sketch { return &Sketch{} }

// Add folds one element's 64-bit hash into the sketch. Callers hash their
// values (e.g. with Hash64 below); identical values must produce identical
// hashes.
func (s *Sketch) Add(hash uint64) {
	idx := hash >> (64 - Precision)
	rest := hash << Precision
	rank := uint8(bits.LeadingZeros64(rest)) + 1
	if maxRank := uint8(64 - Precision + 1); rank > maxRank {
		rank = maxRank
	}
	if rank > s.registers[idx] {
		s.registers[idx] = rank
	}
}

// Estimate returns the approximate number of distinct elements added.
func (s *Sketch) Estimate() float64 {
	var sum float64
	zeros := 0
	for _, r := range s.registers {
		sum += 1 / float64(uint64(1)<<r)
		if r == 0 {
			zeros++
		}
	}
	est := alpha * m * m / sum
	// Small-range correction (linear counting) when many registers are
	// empty.
	if est <= 2.5*m && zeros > 0 {
		return m * math.Log(float64(m)/float64(zeros))
	}
	return est
}

// Merge folds another sketch into s (register-wise max). Merging is
// lossless: merge-then-estimate equals estimate-over-union.
func (s *Sketch) Merge(o *Sketch) {
	if o == nil {
		return
	}
	for i := range s.registers {
		if o.registers[i] > s.registers[i] {
			s.registers[i] = o.registers[i]
		}
	}
}

// Clone returns an independent copy of the sketch: mutating either side
// never affects the other. A nil receiver clones to nil.
func (s *Sketch) Clone() *Sketch {
	if s == nil {
		return nil
	}
	c := *s
	return &c
}

// Empty reports whether no element was ever added.
func (s *Sketch) Empty() bool {
	for _, r := range s.registers {
		if r != 0 {
			return false
		}
	}
	return true
}

// BinarySize is the length of every sketch's binary form.
const BinarySize = m

// MarshalBinary serializes the registers (BinarySize bytes).
func (s *Sketch) MarshalBinary() ([]byte, error) {
	return s.AppendBinary(make([]byte, 0, m))
}

// AppendBinary appends the MarshalBinary form to b.
func (s *Sketch) AppendBinary(b []byte) ([]byte, error) {
	return append(b, s.registers[:]...), nil
}

// ErrCorrupt is returned for malformed sketch bytes.
var ErrCorrupt = errors.New("hll: corrupt sketch")

// UnmarshalBinary restores a sketch serialized by MarshalBinary.
func (s *Sketch) UnmarshalBinary(data []byte) error {
	if len(data) != m {
		return fmt.Errorf("%w: %d bytes, want %d", ErrCorrupt, len(data), m)
	}
	maxRank := uint8(64 - Precision + 1)
	for _, r := range data {
		if r > maxRank {
			return fmt.Errorf("%w: register %d out of range", ErrCorrupt, r)
		}
	}
	copy(s.registers[:], data)
	return nil
}

// MergeBinary folds wire-format registers (the MarshalBinary layout) into
// s without allocating an intermediate sketch — the coordinator's
// zero-copy decode path merges thousands of per-group sketches and a
// 4 KiB temporary per merge dominates the cost. The blob is validated in
// full before any register is touched, so a corrupt blob leaves s
// unchanged.
func (s *Sketch) MergeBinary(data []byte) error {
	if len(data) != m {
		return fmt.Errorf("%w: %d bytes, want %d", ErrCorrupt, len(data), m)
	}
	maxRank := uint8(64 - Precision + 1)
	for _, r := range data {
		if r > maxRank {
			return fmt.Errorf("%w: register %d out of range", ErrCorrupt, r)
		}
	}
	for i, r := range data {
		if r > s.registers[i] {
			s.registers[i] = r
		}
	}
	return nil
}

// Hash64 is a splitmix64-style avalanche of a 64-bit value, suitable for
// hashing small integer domains (dimension ids) into Add.
func Hash64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
