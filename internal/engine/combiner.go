package engine

import "errors"

// Combiner is the group state of one answer, owned by the caller of
// Scheduler.Run: every run into it absorbs its pass's per-brick slabs, in
// ascending brick-id order, into one kernel picked over the schema domain
// by the first run. Runs into one combiner are therefore one left fold over
// their bricks — the first run's bricks, then the second's — which is how
// a worker answers a /partial call naming several partitions: one combiner,
// no per-partition answer, no merge.
//
// The zero value is ready to use. Partial hands the groups over; Reset
// empties the combiner but keeps its buffers, so a caller answering query
// after query (a pool of combiners) stops allocating group state. A
// Combiner is not safe for concurrent use.
type Combiner struct {
	ks kernelSet
	// acc is the kernel the first run picked, nil while the combiner is
	// empty.
	acc accumulator
	// group is the value range of each grouped dimension, in GROUP BY
	// order: the domain a dense or packed acc addresses its groups by.
	group [][2]uint32
	// The scan counters summed over the runs.
	rowsScanned, bricksVisited, bricksPruned, decompressions int64
}

var errCombinerShape = errors.New("engine: run's group shape differs from the combiner's")

// bind readies the combiner for a run of c: an empty combiner picks its
// kernel over c's schema domain; a bound one accepts only a run of the same
// arity, aggregate count and grouped-dimension domain, because a dense or
// packed kernel addresses groups by their offset in that domain and would
// mis-key, or index out of range, anything else.
func (cb *Combiner) bind(c *compiled) error {
	if cb.acc == nil {
		cb.acc = cb.ks.pick(c, c.domain)
		cb.group = cb.group[:0]
		for _, gi := range c.groupIdx {
			cb.group = append(cb.group, c.domain[gi])
		}
		return nil
	}
	if s := cb.acc.slab(); s.arity != len(c.groupIdx) || s.nAggs != len(c.q.Aggregates) {
		return errCombinerShape
	}
	for i, gi := range c.groupIdx {
		if c.domain[gi] != cb.group[i] {
			return errCombinerShape
		}
	}
	return nil
}

// slab returns the groups accumulated so far, an empty slab shaped for q
// when no run bound the combiner.
func (cb *Combiner) slab(q *Query) *groupSlab {
	if cb.acc == nil {
		return &groupSlab{arity: len(q.GroupBy), nAggs: len(q.Aggregates)}
	}
	return cb.acc.slab()
}

// Partial hands the groups over as q's Partial, with the summed scan
// counters. Afterwards the combiner is empty and refers to no buffer the
// Partial holds.
func (cb *Combiner) Partial(q *Query) *Partial {
	p := cb.slab(q).partial(q)
	p.RowsScanned, p.BricksVisited, p.BricksPruned, p.Decompressions =
		cb.rowsScanned, cb.bricksVisited, cb.bricksPruned, cb.decompressions
	if cb.acc != nil {
		*cb.acc.slab() = groupSlab{}
	}
	cb.Reset()
	return p
}

// AppendBinary appends the wire encoding of q's answer to dst: the bytes
// Partial(q).MarshalBinary() returns, without building the Partial. The
// combiner keeps its groups.
func (cb *Combiner) AppendBinary(q *Query, dst []byte) []byte {
	return appendPartial(dst, cb.slab(q),
		[4]int64{cb.rowsScanned, cb.bricksVisited, cb.bricksPruned, cb.decompressions})
}

// Reset empties the combiner and keeps its buffers. It clears the cells,
// so no distinct-count sketch survives into the next query.
func (cb *Combiner) Reset() {
	if cb.acc != nil {
		s := cb.acc.slab()
		clear(s.cells)
		s.keys, s.cells = s.keys[:0], s.cells[:0]
	}
	cb.acc = nil
	cb.rowsScanned, cb.bricksVisited, cb.bricksPruned, cb.decompressions = 0, 0, 0, 0
}
