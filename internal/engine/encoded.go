package engine

import (
	"slices"
	"sync"

	"cubrick/internal/brick"
)

// Encoded execution: multi-dimension GROUP BY straight off run/dictionary
// structure, and compiled filter skippers that evaluate a predicate once
// per RLE run or dictionary code instead of per row.
//
// Fully covered bricks dispatch through observeFull, once per visit, on
// the shape the grouped columns arrived in:
//
//   - every grouped dimension as runs: k-wise run intersection into maximal
//     constant-key segments, one group resolution + run-length fold per
//     segment
//   - every grouped dimension as dictionary codes: the code tuple addresses
//     a per-batch slot array, one group resolution per distinct tuple
//   - anything else: encoded group columns materialize into engine scratch
//     once and the row kernels run over a patched column view
//
// Partially covered bricks build their selection through buildSel: each
// filter dimension contributes either accepted row spans (one range test
// per RLE run), a code-interval test (the brick dictionary is sorted, so
// the accepted codes are contiguous), or a value test over a materialized
// column; a code or value test every row passes is dropped, a value test
// when its range covers the brick's bounds. The remaining tests run column
// at a time over a selection vector: the first writes the passing rows of
// the accepted spans without a data-dependent branch, each further one
// compacts the vector in place. Rows rejected at the run level never reach
// a column test.
//
// Every path observes rows in ascending row order per group, so results are
// bit-identical to the materialized row-at-a-time reference — including
// float summation order and HLL register state.

// ScanStats reports encoded-execution accounting for one execution: how
// much work the skippers did at run/code granularity instead of per row,
// and how many bricks were pruned from their blob headers without any
// decode. It is engine-local instrumentation — never merged into Partial
// or shipped on the wire, so results stay bit-identical across paths.
type ScanStats struct {
	// RunsTouched / RunsSkipped count RLE runs a filter skipper accepted
	// (rows entered per-row processing) vs rejected whole.
	RunsTouched int64
	RunsSkipped int64
	// CodesTouched / CodesSkipped count dictionary codes inside vs outside
	// the accepted code interval of a filtered dictionary column.
	CodesTouched int64
	CodesSkipped int64
	// BricksStatsPruned counts encoded bricks skipped entirely because
	// their blob column bounds (FOR base/width, dictionary min/max) proved
	// no row could match the filter, before any decode.
	BricksStatsPruned int64
}

func (s *ScanStats) add(o ScanStats) {
	s.RunsTouched += o.RunsTouched
	s.RunsSkipped += o.RunsSkipped
	s.CodesTouched += o.CodesTouched
	s.CodesSkipped += o.CodesSkipped
	s.BricksStatsPruned += o.BricksStatsPruned
}

// maxTupleSlots caps the slot array of the code-tuple path (≤ 256 KiB of
// slots per worker); larger code domains fall back to scratch
// materialization.
const maxTupleSlots = 1 << 16

// encScratch is per-worker scratch for the brick visit: the kernels and
// their group buffers, patched column views, materialization buffers, run
// cursors, code-tuple slots and span buffers live across tasks so
// steady-state scanning does not allocate.
type encScratch struct {
	kernels kernelSet
	dims    [][]uint32    // patched view over Batch.Dims
	cols    [][]uint32    // per-grouped-dim materialization buffers
	keys    []uint32      // key tuple scratch
	runsBy  [][]brick.Run // per-grouped-dim run views
	runIdx  []int
	runRem  []int32
	// tupCodes / tupDicts are the per-grouped-dim code views of a
	// code-tuple batch; tupSlots maps a code tuple to 1 + its group index
	// (0 = not yet resolved) and is cleared per batch.
	tupCodes, tupDicts [][]uint32
	tupSlots           []int32
	// spanBufs rotate through buildSel's span intersection: one holds the
	// current accepted spans, one the next dimension's spans, one the
	// intersection output — never aliased.
	spanBufs [3][]rowSpan
	preds    []rowPred
	// sel is the row-selection buffer of partially covered batches; non-nil
	// so an empty selection is distinguishable from "all rows pass".
	sel []int32
}

// encScratchPool recycles scratch across pass workers: one is taken per
// worker per pass, and a 16-partition query starts 32 of them.
var encScratchPool = sync.Pool{New: func() any { return &encScratch{sel: make([]int32, 0, 1024)} }}

// slabPool recycles sealed brick slabs: a pass worker takes one per brick
// (groupSlab.pooledSeal), and combine returns each after absorbing it
// (groupSlab.release).
var slabPool = sync.Pool{New: func() any { return new(groupSlab) }}

func (es *encScratch) keyBuf(k int) []uint32 {
	if cap(es.keys) < k {
		es.keys = make([]uint32, k)
	}
	return es.keys[:k]
}

func (es *encScratch) col(slot, rows int) []uint32 {
	for len(es.cols) <= slot {
		es.cols = append(es.cols, nil)
	}
	b := es.cols[slot]
	if cap(b) < rows {
		b = make([]uint32, rows)
	}
	b = b[:rows]
	es.cols[slot] = b
	return b
}

// patchDims returns b.Dims with every encoded grouped column materialized
// into scratch. The original batch is never mutated — cached batches are
// shared across concurrent scans.
func (c *compiled) patchDims(b *brick.Batch, es *encScratch) [][]uint32 {
	if cap(es.dims) < len(b.Dims) {
		es.dims = make([][]uint32, len(b.Dims))
	}
	dims := es.dims[:len(b.Dims)]
	copy(dims, b.Dims)
	slot := 0
	for _, gi := range c.groupIdx {
		if dims[gi] != nil {
			continue
		}
		out := es.col(slot, b.Rows)
		slot++
		if runs := b.Runs(gi); runs != nil {
			i := 0
			for _, run := range runs {
				for j := int32(0); j < run.Length; j++ {
					out[i] = run.Value
					i++
				}
			}
		} else if codes, dict := b.Codes(gi); codes != nil {
			for r, code := range codes {
				out[r] = dict[code]
			}
		} else {
			// Skipped entirely — cannot happen for a grouped dim, but a
			// zero column keeps the kernels memory-safe if it ever does.
			for r := range out {
				out[r] = 0
			}
		}
		dims[gi] = out
	}
	es.dims = dims
	return dims
}

// observeFull feeds one fully covered batch to acc, straight off the
// grouped columns' run or dictionary structure when every grouped
// dimension arrived in the same one, else through the row kernel over a
// patched column view.
func (c *compiled) observeFull(acc accumulator, b *brick.Batch, es *encScratch) {
	if !c.encGroup || len(c.groupIdx) == 0 || b.Rows == 0 {
		acc.observeBatch(b.Dims, b.Metrics, b.Rows, nil)
		return
	}
	allRuns, allCodes := true, true
	for _, gi := range c.groupIdx {
		if b.Runs(gi) == nil {
			allRuns = false
		}
		if codes, _ := b.Codes(gi); codes == nil {
			allCodes = false
		}
	}
	if allRuns {
		c.observeSegs(acc, b, es)
		return
	}
	if allCodes && c.observeTuples(acc, b, es) {
		return
	}
	// Mixed shapes: materialize the encoded group columns into scratch once
	// and run the row kernel over a patched view.
	acc.observeBatch(c.patchDims(b, es), b.Metrics, b.Rows, nil)
}

// observeSegs aggregates a batch whose grouped columns are all runs: the
// run lists are intersected into maximal constant-key segments — a
// boundary wherever any dimension's run ends — and each segment costs one
// group resolution and a run-length fold.
func (c *compiled) observeSegs(acc accumulator, b *brick.Batch, es *encScratch) {
	k := len(c.groupIdx)
	if cap(es.runsBy) < k {
		es.runsBy = make([][]brick.Run, k)
		es.runIdx = make([]int, k)
		es.runRem = make([]int32, k)
	}
	runsBy, idx, rem := es.runsBy[:k], es.runIdx[:k], es.runRem[:k]
	for d, gi := range c.groupIdx {
		runsBy[d] = b.Runs(gi)
		idx[d] = 0
		rem[d] = runsBy[d][0].Length
	}
	keys := es.keyBuf(k)
	s := acc.slab()
	for pos, rows := int32(0), int32(b.Rows); pos < rows; {
		n := rem[0]
		for d := 1; d < k; d++ {
			if rem[d] < n {
				n = rem[d]
			}
		}
		for d := 0; d < k; d++ {
			keys[d] = runsBy[d][idx[d]].Value
		}
		g := acc.groupFor(keys)
		c.observeRun(s.at(g), b, int(pos), int(n))
		pos += n
		for d := 0; d < k; d++ {
			rem[d] -= n
			if rem[d] == 0 && idx[d]+1 < len(runsBy[d]) {
				idx[d]++
				rem[d] = runsBy[d][idx[d]].Length
			}
		}
	}
}

// observeTuples aggregates a batch whose grouped columns are all
// dictionary-coded: the code tuple indexes a per-batch slot array, so a
// group is resolved once per distinct tuple and the per-row work is array
// arithmetic. It declines, observing nothing, when the code cross-product
// exceeds maxTupleSlots.
func (c *compiled) observeTuples(acc accumulator, b *brick.Batch, es *encScratch) bool {
	codes, dicts := es.tupCodes[:0], es.tupDicts[:0]
	n := 1
	for _, gi := range c.groupIdx {
		cs, dict := b.Codes(gi)
		codes, dicts = append(codes, cs), append(dicts, dict)
		n = min(n*len(dict), maxTupleSlots+1)
	}
	es.tupCodes, es.tupDicts = codes, dicts
	if n > maxTupleSlots {
		return false
	}
	if cap(es.tupSlots) < n {
		es.tupSlots = make([]int32, n)
	}
	slots := es.tupSlots[:n]
	clear(slots)
	k := len(c.groupIdx)
	keys := es.keyBuf(k)
	s := acc.slab()
	for r := 0; r < b.Rows; r++ {
		idx := 0
		for d := 0; d < k; d++ {
			idx = idx*len(dicts[d]) + int(codes[d][r])
		}
		g := slots[idx] - 1
		if g < 0 {
			for d := 0; d < k; d++ {
				keys[d] = dicts[d][codes[d][r]]
			}
			g = acc.groupFor(keys)
			slots[idx] = g + 1
		}
		c.observeRow(s.at(g), b.Dims, b.Metrics, r)
	}
	return true
}

// ---------------------------------------------------------------------------
// Filter skippers

// rowSpan is a half-open row range surviving run-level filtering.
type rowSpan struct {
	start, end int32
}

// rowPred is one per-row predicate: vals is either a materialized column
// (value test) or a code column (interval test over the accepted codes).
// lo <= hi always: buildSel never builds an inverted predicate, because
// the one-compare test below would pass every value of one.
type rowPred struct {
	vals   []uint32
	lo, hi uint32
}

// keep appends to sel the rows of sp whose value passes p; sel must have
// room for every row of sp. The row is written unconditionally and the
// cursor advances by the test's outcome, lo <= v <= hi decided as
// v−lo <= hi−lo by the sign of a 64-bit difference, so no branch depends
// on the data.
func (p *rowPred) keep(sel []int32, sp rowSpan) []int32 {
	n := len(sel)
	out := sel[:n+int(sp.end-sp.start)]
	lo, w := p.lo, uint64(p.hi-p.lo)
	for i, v := range p.vals[sp.start:sp.end] {
		out[n] = sp.start + int32(i)
		n += int(1 ^ (w-uint64(v-lo))>>63)
	}
	return out[:n]
}

// compact keeps, in place and in order, the rows of sel whose value passes
// p, with keep's branch-free test.
func (p *rowPred) compact(sel []int32) []int32 {
	lo, w := p.lo, uint64(p.hi-p.lo)
	n := 0
	for _, r := range sel {
		sel[n] = r
		n += int(1 ^ (w-uint64(p.vals[r]-lo))>>63)
	}
	return sel[:n]
}

// buildSel evaluates the compiled filter over a partially covered batch
// of a brick with the given bounds using the encoded skippers, returning
// the surviving row selection in ascending row order. sel is an empty
// buffer; all == true means every row passes (sel is unused). Counters
// land in st.
func (c *compiled) buildSel(b *brick.Batch, bounds [][2]uint32, sel []int32, es *encScratch, st *ScanStats) (out []int32, all bool) {
	var spans []rowSpan
	cur := -1 // index of the spanBuf backing spans, -1 until the first runs dim
	haveSpans := false
	es.preds = es.preds[:0]
	for _, fd := range c.filterDims {
		if runs := b.Runs(fd.idx); runs != nil {
			// Run skipper: one range test per run yields accepted spans.
			ni := (cur + 1) % 3
			next := es.spanBufs[ni][:0]
			pos := int32(0)
			for _, run := range runs {
				if run.Value >= fd.lo && run.Value <= fd.hi {
					st.RunsTouched++
					if n := len(next); n > 0 && next[n-1].end == pos {
						next[n-1].end = pos + run.Length
					} else {
						next = append(next, rowSpan{start: pos, end: pos + run.Length})
					}
				} else {
					st.RunsSkipped++
				}
				pos += run.Length
			}
			es.spanBufs[ni] = next
			if haveSpans {
				oi := (cur + 2) % 3
				es.spanBufs[oi] = intersectSpans(spans, next, es.spanBufs[oi][:0])
				cur = oi
			} else {
				cur = ni
				haveSpans = true
			}
			spans = es.spanBufs[cur]
			if len(spans) == 0 {
				return sel[:0], false
			}
			continue
		}
		if codes, dict := b.Codes(fd.idx); codes != nil {
			// Dictionary skipper: the brick dictionary is sorted and
			// distinct, so the accepted codes form one contiguous interval.
			cLo, _ := slices.BinarySearch(dict, fd.lo)
			cHi, found := slices.BinarySearch(dict, fd.hi)
			if !found {
				cHi--
			}
			acc := int64(0)
			if cHi >= cLo {
				acc = int64(cHi - cLo + 1)
			}
			st.CodesTouched += acc
			st.CodesSkipped += int64(len(dict)) - acc
			if cHi < cLo {
				return sel[:0], false
			}
			if cLo == 0 && cHi == len(dict)-1 {
				continue // every code accepted: the predicate is vacuous
			}
			es.preds = append(es.preds, rowPred{vals: codes, lo: uint32(cLo), hi: uint32(cHi)})
			continue
		}
		if fd.lo > fd.hi {
			return sel[:0], false // an inverted range selects nothing
		}
		if fd.lo <= bounds[fd.idx][0] && fd.hi >= bounds[fd.idx][1] {
			continue // the range covers the brick's values: the predicate is vacuous
		}
		es.preds = append(es.preds, rowPred{vals: b.Dims[fd.idx], lo: fd.lo, hi: fd.hi})
	}
	if !haveSpans && len(es.preds) == 0 {
		return sel, true
	}
	if !haveSpans {
		es.spanBufs[0] = append(es.spanBufs[0][:0], rowSpan{end: int32(b.Rows)})
		spans = es.spanBufs[0]
	}
	if len(es.preds) == 0 {
		// Pure run filtering: expand spans without touching any column.
		for _, sp := range spans {
			for r := sp.start; r < sp.end; r++ {
				sel = append(sel, r)
			}
		}
		return sel, false
	}
	// Column at a time: the first predicate selects over the accepted
	// spans, each further one compacts the selection in place.
	sel = slices.Grow(sel, b.Rows)
	for _, sp := range spans {
		sel = es.preds[0].keep(sel, sp)
	}
	for pi := 1; pi < len(es.preds); pi++ {
		sel = es.preds[pi].compact(sel)
	}
	return sel, false
}

// intersectSpans writes the intersection of two sorted span lists into dst.
func intersectSpans(a, b, dst []rowSpan) []rowSpan {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		lo := a[i].start
		if b[j].start > lo {
			lo = b[j].start
		}
		hi := a[i].end
		if b[j].end < hi {
			hi = b[j].end
		}
		if lo < hi {
			dst = append(dst, rowSpan{start: lo, end: hi})
		}
		if a[i].end <= b[j].end {
			i++
		} else {
			j++
		}
	}
	return dst
}
