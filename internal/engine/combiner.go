package engine

import "errors"

// Combiner is the group state of one answer, owned by the caller of Run:
// a run absorbs its pass's per-brick slabs, in task order, into one kernel
// picked over the schema domain. A combiner holds one run: a /partial call
// naming several partitions is one run over all of their stores, so one
// combiner, no per-partition answer, no merge.
//
// The zero value is ready to use. Partial hands the groups over; Reset
// empties the combiner but keeps its buffers, so a caller answering query
// after query (a pool of combiners) stops allocating group state. A
// Combiner is not safe for concurrent use.
type Combiner struct {
	ks kernelSet
	// acc is the kernel the run picked, nil while the combiner is empty.
	acc accumulator
	// counts are the run's scan counters: rows scanned, bricks visited,
	// bricks pruned, decompressions.
	counts [4]int64
}

var errCombinerInUse = errors.New("engine: Run into a combiner that already holds a run")

// bind readies an empty combiner for a run of c by picking its kernel over
// c's schema domain. A combiner holds one run until Reset.
func (cb *Combiner) bind(c *compiled) error {
	if cb.acc != nil {
		return errCombinerInUse
	}
	cb.acc = cb.ks.pick(c, c.domain)
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

// Partial hands the groups over as q's Partial, with the run's scan
// counters. Afterwards the combiner is empty and refers to no buffer the
// Partial holds.
func (cb *Combiner) Partial(q *Query) *Partial {
	p := cb.slab(q).partial(q)
	p.RowsScanned, p.BricksVisited, p.BricksPruned, p.Decompressions =
		cb.counts[0], cb.counts[1], cb.counts[2], cb.counts[3]
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
	return appendPartial(dst, cb.slab(q), cb.counts)
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
	cb.counts = [4]int64{}
}
