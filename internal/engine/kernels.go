package engine

import (
	"encoding/binary"
	"math/bits"

	"cubrick/internal/brick"
	"cubrick/internal/hll"
)

// Aggregation kernels for the vectorized execution path. Each kernel
// consumes whole columnar batches (the dims/metrics views a ScanTask
// yields) instead of materialized rows, and specializes the group-key
// representation:
//
//   - globalAcc:  no GROUP BY — a single accumulator set, no map, no key
//   - key1Acc:    one GROUP BY dimension — uint32-keyed map
//   - key2Acc:    two GROUP BY dimensions — uint64-packed key
//   - keyNAcc:    three or more dimensions — byte-string key (fallback)
//
// A kernel accumulates one brick's rows; per-brick kernels are merged in
// ascending brick-id order and converted to the canonical string-keyed
// Partial once at the end, so parallel execution is deterministic and
// scheduling-independent.

// encodedGroupObserver is implemented by the single-dimension GROUP BY
// kernels that can aggregate straight off a column's encoded structure:
// one slot resolution per run (run-length multiply for count, a tight
// metric loop per run) or per dictionary code, instead of per row. Only
// dispatched on fully covered bricks with compile-time eligibility
// (exactly one GROUP BY dimension, not read by any CountDistinct), so the
// batch's other referenced columns are always materialized.
type encodedGroupObserver interface {
	observeRuns(b *brick.Batch, runs []brick.Run)
	observeCodes(b *brick.Batch, codes, dict []uint32)
}

// observeRun folds rows [start, start+n) — all belonging to group g —
// into g's cells, using run-length shortcuts where the aggregate allows:
// Count adds n in O(1); metric aggregates run a register-local loop over
// the metric column slice; CountDistinct over other dimensions stays
// per-row.
func (c *compiled) observeRun(g *group, b *brick.Batch, start, n int) {
	end := start + n
	for i := range c.q.Aggregates {
		cl := &g.cells[i]
		if di := c.distinctIdx[i]; di >= 0 {
			col := b.Dims[di]
			for r := start; r < end; r++ {
				cl.observeDistinct(col[r])
			}
			continue
		}
		if mi := c.metricIdx[i]; mi >= 0 {
			col := b.Metrics[mi]
			sum, cnt, mn, mx := cl.sum, cl.count, cl.min, cl.max
			for r := start; r < end; r++ {
				v := col[r]
				sum += v
				cnt++
				if v < mn {
					mn = v
				}
				if v > mx {
					mx = v
				}
			}
			cl.sum, cl.count, cl.min, cl.max = sum, cnt, mn, mx
			continue
		}
		// Count: exactly equivalent to n observe(1) calls, without the loop.
		cl.sum += float64(n)
		cl.count += int64(n)
		if 1 < cl.min {
			cl.min = 1
		}
		if 1 > cl.max {
			cl.max = 1
		}
	}
}

// accumulator is one kernel instance. sel selects the surviving row
// indexes of the batch when the brick is not fully covered by the filter;
// a nil sel means every row passes.
type accumulator interface {
	observeBatch(dims [][]uint32, metrics [][]float64, rows int, sel []int32)
	// mergeFrom folds another accumulator of the same kernel type.
	mergeFrom(o accumulator)
	// addTo folds the kernel's groups into a canonical partial.
	addTo(p *Partial)
	// clone returns a deep copy: group keys, cells, and HLL sketches are
	// all owned by the copy. Required for caching, because mergeFrom /
	// addTo alias group pointers into their destination and later merges
	// mutate the aliased cells — a shared snapshot would be corrupted the
	// second time it was consumed.
	clone() accumulator
	// memBytes estimates the accumulator's resident footprint, for cache
	// byte budgeting.
	memBytes() int64
}

// groupOverheadBytes approximates one group's fixed cost (struct headers,
// map bookkeeping) for cache budgeting; each cell adds cellBytes and a
// live HLL sketch its register array.
const (
	groupOverheadBytes = 64
	cellBytes          = 48
)

func cloneCells(cells []cell) []cell {
	out := make([]cell, len(cells))
	copy(out, cells)
	for i := range out {
		out[i].sketch = out[i].sketch.Clone()
	}
	return out
}

func cloneGroup(g *group) *group {
	return &group{key: append([]uint32(nil), g.key...), cells: cloneCells(g.cells)}
}

func groupBytes(g *group) int64 {
	n := int64(groupOverheadBytes) + int64(4*len(g.key)) + int64(cellBytes*len(g.cells))
	for i := range g.cells {
		if g.cells[i].sketch != nil {
			n += hll.Bytes
		}
	}
	return n
}

// newAccumulator picks the combiner kernel for the compiled query's
// GROUP BY arity. Combiners are map-based so they can absorb groups from
// any brick.
func newAccumulator(c *compiled) accumulator {
	switch len(c.groupIdx) {
	case 0:
		return &globalAcc{c: c, cells: newCells(len(c.q.Aggregates))}
	case 1:
		return &key1Acc{c: c, groups: make(map[uint32]*group)}
	case 2:
		return &key2Acc{c: c, groups: make(map[uint64]*group)}
	default:
		return &keyNAcc{
			c:       c,
			groups:  make(map[string]*group),
			keyVals: make([]uint32, len(c.groupIdx)),
			keyBuf:  make([]byte, 4*len(c.groupIdx)),
		}
	}
}

// denseDomainLimit caps the slot count of a dense per-brick accumulator
// (≤ 32 KiB of group pointers per task).
const denseDomainLimit = 4096

// newTaskAccumulator picks the kernel for one brick's scan task. Because
// every dimension is range-partitioned, a brick's rows confine each
// grouped dimension to the brick's bounds; when the per-brick group
// domain is small the kernel uses a dense slot array — no hashing at all
// on the hot path. Otherwise it falls back to the map kernels.
func newTaskAccumulator(c *compiled, bounds [][2]uint32) accumulator {
	nd := len(c.groupIdx)
	if (nd == 1 || nd == 2) && bounds != nil {
		domain := 1
		var lo [2]uint32
		var width [2]int
		for i, gi := range c.groupIdx {
			b := bounds[gi]
			lo[i] = b[0]
			width[i] = int(b[1]-b[0]) + 1
			domain *= width[i]
		}
		if domain <= denseDomainLimit {
			return &denseAcc{c: c, lo: lo, width: width, groups: make([]*group, domain)}
		}
	}
	if nd >= 3 && bounds != nil {
		// Pack (value − brick lower bound) per dimension into one uint64 key
		// when the brick-bounded domain fits; replaces the byte-string path.
		lo := make([]uint32, nd)
		shift := make([]uint8, nd)
		total := 0
		fits := true
		for i := nd - 1; i >= 0; i-- {
			b := bounds[c.groupIdx[i]]
			lo[i] = b[0]
			shift[i] = uint8(total)
			total += bits.Len32(b[1] - b[0])
			if total > 64 {
				fits = false
				break
			}
		}
		if fits {
			return &packedNAcc{
				c:      c,
				lo:     lo,
				shift:  shift,
				groups: make(map[uint64]*group),
				keys:   make([]uint32, nd),
			}
		}
	}
	return newAccumulator(c)
}

func newCells(n int) []cell {
	cells := make([]cell, n)
	for i := range cells {
		cells[i] = newCell()
	}
	return cells
}

// mergeGroup folds a finished kernel group into the partial, taking
// ownership of the cells.
func (p *Partial) mergeGroup(key []uint32, cells []cell) {
	k := groupKey(key)
	g, ok := p.groups[k]
	if !ok {
		p.groups[k] = &group{key: append([]uint32{}, key...), cells: cells}
		return
	}
	for i := range g.cells {
		g.cells[i].merge(cells[i])
	}
}

// globalAcc is the scalar kernel for global aggregates: column-at-a-time
// accumulation into per-aggregate registers, no map and no key
// materialization on the hot path.
type globalAcc struct {
	c     *compiled
	cells []cell
	// touched distinguishes "no rows seen" from "all-zero accumulators",
	// so empty scans produce zero groups exactly like the serial path.
	touched bool
}

func (a *globalAcc) observeBatch(dims [][]uint32, metrics [][]float64, rows int, sel []int32) {
	n := rows
	if sel != nil {
		n = len(sel)
	}
	if n == 0 {
		return
	}
	a.touched = true
	for i := range a.c.q.Aggregates {
		cl := &a.cells[i]
		if di := a.c.distinctIdx[i]; di >= 0 {
			col := dims[di]
			if sel == nil {
				for r := 0; r < rows; r++ {
					cl.observeDistinct(col[r])
				}
			} else {
				for _, r := range sel {
					cl.observeDistinct(col[r])
				}
			}
			continue
		}
		if mi := a.c.metricIdx[i]; mi >= 0 {
			col := metrics[mi]
			// Keep the registers in locals so the tight loop stays free of
			// pointer loads.
			sum, cnt, mn, mx := cl.sum, cl.count, cl.min, cl.max
			if sel == nil {
				for r := 0; r < rows; r++ {
					v := col[r]
					sum += v
					cnt++
					if v < mn {
						mn = v
					}
					if v > mx {
						mx = v
					}
				}
			} else {
				for _, r := range sel {
					v := col[r]
					sum += v
					cnt++
					if v < mn {
						mn = v
					}
					if v > mx {
						mx = v
					}
				}
			}
			cl.sum, cl.count, cl.min, cl.max = sum, cnt, mn, mx
			continue
		}
		// Count: exactly equivalent to n observe(1) calls, without the loop.
		cl.sum += float64(n)
		cl.count += int64(n)
		if 1 < cl.min {
			cl.min = 1
		}
		if 1 > cl.max {
			cl.max = 1
		}
	}
}

func (a *globalAcc) mergeFrom(o accumulator) {
	og := o.(*globalAcc)
	if !og.touched {
		return
	}
	a.touched = true
	for i := range a.cells {
		a.cells[i].merge(og.cells[i])
	}
}

func (a *globalAcc) addTo(p *Partial) {
	if !a.touched {
		return
	}
	p.mergeGroup(nil, a.cells)
}

func (a *globalAcc) clone() accumulator {
	return &globalAcc{c: a.c, cells: cloneCells(a.cells), touched: a.touched}
}

func (a *globalAcc) memBytes() int64 {
	n := int64(groupOverheadBytes) + int64(cellBytes*len(a.cells))
	for i := range a.cells {
		if a.cells[i].sketch != nil {
			n += hll.Bytes
		}
	}
	return n
}

// denseAcc is the per-brick fast path for 1- and 2-dimension GROUP BY:
// group slots are addressed directly by (value − brick lower bound), so
// the hot loop does array indexing instead of map lookups.
type denseAcc struct {
	c     *compiled
	lo    [2]uint32
	width [2]int
	// groups has one slot per point of the brick's group domain
	// (row-major over the two grouped dimensions); nil until a row lands.
	groups []*group
}

func (a *denseAcc) observeBatch(dims [][]uint32, metrics [][]float64, rows int, sel []int32) {
	nAggs := len(a.c.q.Aggregates)
	if len(a.c.groupIdx) == 1 {
		keys := dims[a.c.groupIdx[0]]
		lo := a.lo[0]
		if sel == nil {
			for r := 0; r < rows; r++ {
				k := keys[r]
				g := a.groups[k-lo]
				if g == nil {
					g = newGroup([]uint32{k}, nAggs)
					a.groups[k-lo] = g
				}
				a.c.observeRow(g, dims, metrics, r)
			}
		} else {
			for _, r := range sel {
				k := keys[r]
				g := a.groups[k-lo]
				if g == nil {
					g = newGroup([]uint32{k}, nAggs)
					a.groups[k-lo] = g
				}
				a.c.observeRow(g, dims, metrics, int(r))
			}
		}
		return
	}
	k0 := dims[a.c.groupIdx[0]]
	k1 := dims[a.c.groupIdx[1]]
	lo0, lo1, w1 := a.lo[0], a.lo[1], a.width[1]
	if sel == nil {
		for r := 0; r < rows; r++ {
			idx := int(k0[r]-lo0)*w1 + int(k1[r]-lo1)
			g := a.groups[idx]
			if g == nil {
				g = newGroup([]uint32{k0[r], k1[r]}, nAggs)
				a.groups[idx] = g
			}
			a.c.observeRow(g, dims, metrics, r)
		}
	} else {
		for _, r := range sel {
			idx := int(k0[r]-lo0)*w1 + int(k1[r]-lo1)
			g := a.groups[idx]
			if g == nil {
				g = newGroup([]uint32{k0[r], k1[r]}, nAggs)
				a.groups[idx] = g
			}
			a.c.observeRow(g, dims, metrics, int(r))
		}
	}
}

// observeRuns aggregates an RLE-encoded group column run by run: one slot
// lookup per run instead of per row. Only reached with a single grouped
// dimension (encoded-kernel eligibility), so lo[0] addresses the domain.
func (a *denseAcc) observeRuns(b *brick.Batch, runs []brick.Run) {
	nAggs := len(a.c.q.Aggregates)
	lo := a.lo[0]
	start := 0
	for _, run := range runs {
		n := int(run.Length)
		g := a.groups[run.Value-lo]
		if g == nil {
			g = newGroup([]uint32{run.Value}, nAggs)
			a.groups[run.Value-lo] = g
		}
		a.c.observeRun(g, b, start, n)
		start += n
	}
}

// observeCodes aggregates a dictionary-encoded group column: groups are
// resolved once per dictionary code through a per-batch slot cache, so the
// per-row work is a single array index rather than a domain lookup.
func (a *denseAcc) observeCodes(b *brick.Batch, codes, dict []uint32) {
	nAggs := len(a.c.q.Aggregates)
	lo := a.lo[0]
	slots := make([]*group, len(dict))
	for r, code := range codes {
		g := slots[code]
		if g == nil {
			v := dict[code]
			g = a.groups[v-lo]
			if g == nil {
				g = newGroup([]uint32{v}, nAggs)
				a.groups[v-lo] = g
			}
			slots[code] = g
		}
		a.c.observeRow(g, b.Dims, b.Metrics, r)
	}
}

// groupFor resolves the group for a full key tuple (1 or 2 values) with a
// direct slot index.
func (a *denseAcc) groupFor(key []uint32) *group {
	idx := int(key[0] - a.lo[0])
	if len(key) == 2 {
		idx = idx*a.width[1] + int(key[1]-a.lo[1])
	}
	g := a.groups[idx]
	if g == nil {
		g = newGroup(key, len(a.c.q.Aggregates))
		a.groups[idx] = g
	}
	return g
}

// each yields the occupied slots in ascending domain order.
func (a *denseAcc) each(fn func(g *group)) {
	for _, g := range a.groups {
		if g != nil {
			fn(g)
		}
	}
}

// mergeFrom is never used on denseAcc: dense kernels are per-brick only;
// map-based combiners absorb them via each.
func (a *denseAcc) mergeFrom(accumulator) {
	panic("engine: denseAcc cannot combine across bricks")
}

func (a *denseAcc) addTo(p *Partial) {
	a.each(func(g *group) { p.mergeGroup(g.key, g.cells) })
}

func (a *denseAcc) clone() accumulator {
	groups := make([]*group, len(a.groups))
	for i, g := range a.groups {
		if g != nil {
			groups[i] = cloneGroup(g)
		}
	}
	return &denseAcc{c: a.c, lo: a.lo, width: a.width, groups: groups}
}

func (a *denseAcc) memBytes() int64 {
	n := int64(8 * len(a.groups))
	for _, g := range a.groups {
		if g != nil {
			n += groupBytes(g)
		}
	}
	return n
}

// key1Acc groups by a single dimension: the raw uint32 value is the map
// key, so the hot path allocates nothing per row beyond new groups.
type key1Acc struct {
	c      *compiled
	groups map[uint32]*group
}

func (a *key1Acc) observeBatch(dims [][]uint32, metrics [][]float64, rows int, sel []int32) {
	keys := dims[a.c.groupIdx[0]]
	if sel == nil {
		for r := 0; r < rows; r++ {
			a.observeRow(keys[r], dims, metrics, r)
		}
	} else {
		for _, r := range sel {
			a.observeRow(keys[r], dims, metrics, int(r))
		}
	}
}

func (a *key1Acc) observeRow(k uint32, dims [][]uint32, metrics [][]float64, r int) {
	g, ok := a.groups[k]
	if !ok {
		g = newGroup([]uint32{k}, len(a.c.q.Aggregates))
		a.groups[k] = g
	}
	a.c.observeRow(g, dims, metrics, r)
}

// observeRuns aggregates an RLE-encoded group column with one map probe
// per run.
func (a *key1Acc) observeRuns(b *brick.Batch, runs []brick.Run) {
	start := 0
	for _, run := range runs {
		n := int(run.Length)
		g, ok := a.groups[run.Value]
		if !ok {
			g = newGroup([]uint32{run.Value}, len(a.c.q.Aggregates))
			a.groups[run.Value] = g
		}
		a.c.observeRun(g, b, start, n)
		start += n
	}
}

// observeCodes aggregates a dictionary-encoded group column with at most
// one map probe per distinct code; per-row work is an array index.
func (a *key1Acc) observeCodes(b *brick.Batch, codes, dict []uint32) {
	slots := make([]*group, len(dict))
	for r, code := range codes {
		g := slots[code]
		if g == nil {
			var ok bool
			g, ok = a.groups[dict[code]]
			if !ok {
				g = newGroup([]uint32{dict[code]}, len(a.c.q.Aggregates))
				a.groups[dict[code]] = g
			}
			slots[code] = g
		}
		a.c.observeRow(g, b.Dims, b.Metrics, r)
	}
}

func (a *key1Acc) groupFor(key []uint32) *group {
	g, ok := a.groups[key[0]]
	if !ok {
		g = newGroup(key, len(a.c.q.Aggregates))
		a.groups[key[0]] = g
	}
	return g
}

func (a *key1Acc) insertGroup(og *group) {
	k := og.key[0]
	g, ok := a.groups[k]
	if !ok {
		a.groups[k] = og
		return
	}
	for i := range g.cells {
		g.cells[i].merge(og.cells[i])
	}
}

func (a *key1Acc) mergeFrom(o accumulator) {
	switch o := o.(type) {
	case *denseAcc:
		o.each(a.insertGroup)
	case *key1Acc:
		for _, og := range o.groups {
			a.insertGroup(og)
		}
	}
}

func (a *key1Acc) addTo(p *Partial) {
	for _, g := range a.groups {
		p.mergeGroup(g.key, g.cells)
	}
}

func (a *key1Acc) clone() accumulator {
	groups := make(map[uint32]*group, len(a.groups))
	for k, g := range a.groups {
		groups[k] = cloneGroup(g)
	}
	return &key1Acc{c: a.c, groups: groups}
}

func (a *key1Acc) memBytes() int64 {
	var n int64
	for _, g := range a.groups {
		n += groupBytes(g)
	}
	return n
}

// key2Acc groups by two dimensions packed into one uint64 key.
type key2Acc struct {
	c      *compiled
	groups map[uint64]*group
}

func (a *key2Acc) observeBatch(dims [][]uint32, metrics [][]float64, rows int, sel []int32) {
	k0 := dims[a.c.groupIdx[0]]
	k1 := dims[a.c.groupIdx[1]]
	if sel == nil {
		for r := 0; r < rows; r++ {
			a.observeRow(uint64(k0[r])<<32|uint64(k1[r]), dims, metrics, r)
		}
	} else {
		for _, r := range sel {
			a.observeRow(uint64(k0[r])<<32|uint64(k1[r]), dims, metrics, int(r))
		}
	}
}

func (a *key2Acc) observeRow(k uint64, dims [][]uint32, metrics [][]float64, r int) {
	g, ok := a.groups[k]
	if !ok {
		g = newGroup([]uint32{uint32(k >> 32), uint32(k)}, len(a.c.q.Aggregates))
		a.groups[k] = g
	}
	a.c.observeRow(g, dims, metrics, r)
}

func (a *key2Acc) groupFor(key []uint32) *group {
	k := uint64(key[0])<<32 | uint64(key[1])
	g, ok := a.groups[k]
	if !ok {
		g = newGroup(key, len(a.c.q.Aggregates))
		a.groups[k] = g
	}
	return g
}

func (a *key2Acc) insertGroup(og *group) {
	k := uint64(og.key[0])<<32 | uint64(og.key[1])
	g, ok := a.groups[k]
	if !ok {
		a.groups[k] = og
		return
	}
	for i := range g.cells {
		g.cells[i].merge(og.cells[i])
	}
}

func (a *key2Acc) mergeFrom(o accumulator) {
	switch o := o.(type) {
	case *denseAcc:
		o.each(a.insertGroup)
	case *key2Acc:
		for _, og := range o.groups {
			a.insertGroup(og)
		}
	}
}

func (a *key2Acc) addTo(p *Partial) {
	for _, g := range a.groups {
		p.mergeGroup(g.key, g.cells)
	}
}

func (a *key2Acc) clone() accumulator {
	groups := make(map[uint64]*group, len(a.groups))
	for k, g := range a.groups {
		groups[k] = cloneGroup(g)
	}
	return &key2Acc{c: a.c, groups: groups}
}

func (a *key2Acc) memBytes() int64 {
	var n int64
	for _, g := range a.groups {
		n += groupBytes(g)
	}
	return n
}

// keyNAcc is the fallback for three or more GROUP BY dimensions, keyed by
// the canonical byte-string key. Lookups go through a reused byte buffer
// (the compiler elides the string conversion in map reads), so only new
// groups allocate a key.
type keyNAcc struct {
	c       *compiled
	groups  map[string]*group
	keyVals []uint32
	keyBuf  []byte
}

func (a *keyNAcc) observeBatch(dims [][]uint32, metrics [][]float64, rows int, sel []int32) {
	if sel == nil {
		for r := 0; r < rows; r++ {
			a.observeRow(dims, metrics, r)
		}
	} else {
		for _, r := range sel {
			a.observeRow(dims, metrics, int(r))
		}
	}
}

func (a *keyNAcc) observeRow(dims [][]uint32, metrics [][]float64, r int) {
	for i, gi := range a.c.groupIdx {
		v := dims[gi][r]
		a.keyVals[i] = v
		binary.LittleEndian.PutUint32(a.keyBuf[4*i:], v)
	}
	g, ok := a.groups[string(a.keyBuf)] // alloc-free lookup
	if !ok {
		g = newGroup(a.keyVals, len(a.c.q.Aggregates))
		a.groups[string(a.keyBuf)] = g
	}
	a.c.observeRow(g, dims, metrics, r)
}

func (a *keyNAcc) groupFor(key []uint32) *group {
	for i, v := range key {
		binary.LittleEndian.PutUint32(a.keyBuf[4*i:], v)
	}
	g, ok := a.groups[string(a.keyBuf)] // alloc-free lookup
	if !ok {
		g = newGroup(key, len(a.c.q.Aggregates))
		a.groups[string(a.keyBuf)] = g
	}
	return g
}

func (a *keyNAcc) insertGroup(og *group) {
	for i, v := range og.key {
		binary.LittleEndian.PutUint32(a.keyBuf[4*i:], v)
	}
	g, ok := a.groups[string(a.keyBuf)]
	if !ok {
		a.groups[string(a.keyBuf)] = og
		return
	}
	for i := range g.cells {
		g.cells[i].merge(og.cells[i])
	}
}

func (a *keyNAcc) mergeFrom(o accumulator) {
	switch o := o.(type) {
	case *packedNAcc:
		o.each(a.insertGroup)
	case *keyNAcc:
		for k, og := range o.groups {
			g, ok := a.groups[k]
			if !ok {
				a.groups[k] = og
				continue
			}
			for i := range g.cells {
				g.cells[i].merge(og.cells[i])
			}
		}
	}
}

func (a *keyNAcc) addTo(p *Partial) {
	// The kernel's keys are already the canonical partial keys; when the
	// partial is empty (the common case) the whole map transfers in O(1).
	if len(p.groups) == 0 {
		p.groups = a.groups
		return
	}
	for k, g := range a.groups {
		pg, ok := p.groups[k]
		if !ok {
			p.groups[k] = g
			continue
		}
		for i := range pg.cells {
			pg.cells[i].merge(g.cells[i])
		}
	}
}

func (a *keyNAcc) clone() accumulator {
	groups := make(map[string]*group, len(a.groups))
	for k, g := range a.groups {
		groups[k] = cloneGroup(g)
	}
	return &keyNAcc{
		c:       a.c,
		groups:  groups,
		keyVals: make([]uint32, len(a.keyVals)),
		keyBuf:  make([]byte, len(a.keyBuf)),
	}
}

func (a *keyNAcc) memBytes() int64 {
	var n int64
	for k, g := range a.groups {
		n += int64(len(k)) + groupBytes(g)
	}
	return n
}

// packedNAcc is the per-brick kernel for three or more GROUP BY dimensions
// whose brick-bounded key domain packs into one uint64: each grouped
// dimension contributes bits.Len32(hi−lo) bits of (value − lower bound),
// so the hot path probes an integer-keyed map instead of building a
// byte-string key per row.
type packedNAcc struct {
	c      *compiled
	lo     []uint32
	shift  []uint8
	groups map[uint64]*group
	keys   []uint32 // per-row key scratch; newGroup copies it
}

func (a *packedNAcc) observeBatch(dims [][]uint32, metrics [][]float64, rows int, sel []int32) {
	if sel == nil {
		for r := 0; r < rows; r++ {
			a.observeRow(dims, metrics, r)
		}
	} else {
		for _, r := range sel {
			a.observeRow(dims, metrics, int(r))
		}
	}
}

func (a *packedNAcc) observeRow(dims [][]uint32, metrics [][]float64, r int) {
	var k uint64
	for i, gi := range a.c.groupIdx {
		v := dims[gi][r]
		a.keys[i] = v
		k |= uint64(v-a.lo[i]) << a.shift[i]
	}
	g, ok := a.groups[k]
	if !ok {
		g = newGroup(a.keys, len(a.c.q.Aggregates))
		a.groups[k] = g
	}
	a.c.observeRow(g, dims, metrics, r)
}

func (a *packedNAcc) groupFor(key []uint32) *group {
	var k uint64
	for i, v := range key {
		k |= uint64(v-a.lo[i]) << a.shift[i]
	}
	g, ok := a.groups[k]
	if !ok {
		g = newGroup(key, len(a.c.q.Aggregates))
		a.groups[k] = g
	}
	return g
}

func (a *packedNAcc) each(fn func(g *group)) {
	for _, g := range a.groups {
		fn(g)
	}
}

// mergeFrom is never used on packedNAcc: packed kernels are per-brick only;
// the keyNAcc combiner absorbs them via each.
func (a *packedNAcc) mergeFrom(accumulator) {
	panic("engine: packedNAcc cannot combine across bricks")
}

func (a *packedNAcc) addTo(p *Partial) {
	for _, g := range a.groups {
		p.mergeGroup(g.key, g.cells)
	}
}

func (a *packedNAcc) clone() accumulator {
	groups := make(map[uint64]*group, len(a.groups))
	for k, g := range a.groups {
		groups[k] = cloneGroup(g)
	}
	return &packedNAcc{
		c:      a.c,
		lo:     a.lo,
		shift:  a.shift,
		groups: groups,
		keys:   make([]uint32, len(a.keys)),
	}
}

func (a *packedNAcc) memBytes() int64 {
	n := int64(4 * 2 * len(a.lo))
	for _, g := range a.groups {
		n += groupBytes(g)
	}
	return n
}
