package engine

import (
	"math/bits"
	"slices"

	"cubrick/internal/brick"
)

// Aggregation kernels for the vectorized execution path. Each kernel
// consumes whole columnar batches (the dims/metrics views a ScanTask
// yields) instead of materialized rows, and specializes how a row finds
// its group:
//
//   - globalAcc: no GROUP BY — one group, no key
//   - denseAcc:  the group domain (the product of the grouped dimensions'
//     widths) has at most denseDomainLimit points — a slot array indexed
//     by (value − lower bound), no hashing
//   - packedAcc: each grouped value minus its lower bound, bit-packed into
//     one uint64 map key
//   - keyNAcc:   packed keys wider than 64 bits — a groupIndex over the
//     slab's own keys
//
// One ladder picks the kernel from per-dimension bounds: a brick's bounds
// for the per-brick kernel, the schema domain for the combiner. Every
// kernel keeps its groups in a groupSlab — a group is an index into flat
// key and cell arrays, not an object — so a brick's groups cost no
// allocation of their own. A pass worker reuses one kernel set brick after
// brick and seals each brick's groups into a slab recycled through
// slabPool; the run folds those slabs in ascending brick-id order into
// the caller's Combiner, releasing each to the pool once absorbed, and the
// combiner's slab becomes the Partial or is encoded in place. Parallel
// execution is therefore deterministic and scheduling-independent.

// groupSlab is a kernel's group state addressed by group index: group g's
// key is keys[g*arity:(g+1)*arity] and its cells are
// cells[g*nAggs:(g+1)*nAggs].
//
// Two rules keep a slab correct. A group's cells start as newCell() values
// (min +Inf, max −Inf), never the zero value. And a view returned by at is
// valid only until the next add — an add may move the cells — so code
// holds group indexes across rows and resolves a view at the point of use.
type groupSlab struct {
	arity, nAggs int
	keys         []uint32
	cells        []cell
}

// slab returns the slab itself; kernels embed a groupSlab, so this is how
// an accumulator exposes its group state.
func (s *groupSlab) slab() *groupSlab { return s }

// reset empties the slab for c's GROUP BY, keeping its buffers.
func (s *groupSlab) reset(c *compiled) {
	clear(s.cells) // drop sketch pointers: a sealed copy may own them
	s.keys, s.cells = s.keys[:0], s.cells[:0]
	s.arity, s.nAggs = len(c.groupIdx), len(c.q.Aggregates)
}

// len returns the group count; a slab for no aggregates holds none.
func (s *groupSlab) len() int {
	if s.nAggs == 0 {
		return 0
	}
	return len(s.cells) / s.nAggs
}

func (s *groupSlab) key(g int32) []uint32 {
	i := int(g) * s.arity
	return s.keys[i : i+s.arity : i+s.arity]
}

func (s *groupSlab) at(g int32) []cell {
	i := int(g) * s.nAggs
	return s.cells[i : i+s.nAggs : i+s.nAggs]
}

// add appends a group with fresh cells under key and returns its index.
func (s *groupSlab) add(key []uint32) int32 {
	s.reserve(1)
	s.keys = append(s.keys, key...)
	return s.addCells()
}

// addRow appends a group with fresh cells keyed by row r's grouped values.
func (s *groupSlab) addRow(groupIdx []int, dims [][]uint32, r int) int32 {
	s.reserve(1)
	for _, gi := range groupIdx {
		s.keys = append(s.keys, dims[gi][r])
	}
	return s.addCells()
}

// addCells appends one group's fresh cells; the caller reserved room.
func (s *groupSlab) addCells() int32 {
	g := int32(s.len())
	n := len(s.cells)
	s.cells = s.cells[:n+s.nAggs]
	for i := n; i < len(s.cells); i++ {
		s.cells[i] = newCell()
	}
	return g
}

// reserve makes room for n more groups. Growth at least doubles the
// capacity, so a slab grown a group at a time copies each cell O(1) times
// (append alone grows large slices by a quarter).
func (s *groupSlab) reserve(n int) {
	if len(s.cells)+n*s.nAggs > cap(s.cells) {
		s.keys = slices.Grow(s.keys, max(n*s.arity, len(s.keys)))
		s.cells = slices.Grow(s.cells, max(n*s.nAggs, len(s.cells)))
	}
}

// pooledSeal moves the groups, sketches included, into a slab from
// slabPool without copying them: the slab takes s's buffers and s takes
// the slab's emptied ones for the next brick, so nothing sealed stays
// reachable from s.
func (s *groupSlab) pooledSeal() *groupSlab {
	out := slabPool.Get().(*groupSlab)
	out.arity, out.nAggs = s.arity, s.nAggs
	out.keys, s.keys = s.keys, out.keys[:0]
	out.cells, s.cells = s.cells, out.cells[:0]
	return out
}

// release empties a pooled slab — dropping its sketch pointers, which the
// combiner that absorbed it now owns — and returns it to slabPool. Nothing
// may use the slab afterwards.
func (s *groupSlab) release() {
	clear(s.cells)
	s.keys, s.cells = s.keys[:0], s.cells[:0]
	slabPool.Put(s)
}

// partial makes the slab q's Partial: the Partial takes the slab's keys
// and cells as they are, so the slab must not be used afterwards. Its key
// index is built only if something probes it.
func (s *groupSlab) partial(q *Query) *Partial {
	return &Partial{query: q, groupSlab: *s}
}

// groupIndex finds a slab's groups by key without a per-group object:
// open addressing with linear probing over slots holding 1 + a group index
// (0 marks an empty slot). A key of arity ≤ 2 packs losslessly into the
// slot's uint64, so a probe compares integers; a wider key's slot holds its
// hash, and a hash match is confirmed against the slab's own key array.
type groupIndex struct {
	slots []indexSlot
	shift uint8 // 64 − log2(len(slots)): a hash's top bits pick the slot
}

type indexSlot struct {
	k uint64
	g int32
}

// keyBits is key packed into a uint64 when its arity is at most 2, its
// hash otherwise.
func keyBits(key []uint32) uint64 {
	switch len(key) {
	case 0:
		return 0
	case 1:
		return uint64(key[0])
	case 2:
		return uint64(key[0]) | uint64(key[1])<<32
	}
	h := uint64(len(key))
	for _, v := range key {
		h = (h ^ uint64(v)) * 0x9E3779B97F4A7C15
		h ^= h >> 29
	}
	return h
}

func (x *groupIndex) home(k uint64) int { return int((k * 0x9E3779B97F4A7C15) >> x.shift) }

// find returns the index of key's group in s, adding the group with fresh
// cells when absent.
func (x *groupIndex) find(s *groupSlab, key []uint32) int32 {
	x.reserve(s, s.len()+1)
	k, mask := keyBits(key), len(x.slots)-1
	for i := x.home(k); ; i = (i + 1) & mask {
		sl := &x.slots[i]
		if sl.g == 0 {
			g := s.add(key)
			*sl = indexSlot{k, g + 1}
			return g
		}
		if sl.k == k && (len(key) <= 2 || slices.Equal(s.key(sl.g-1), key)) {
			return sl.g - 1
		}
	}
}

// reserve sizes the table for n groups at a load of at most 3/4,
// re-inserting s's groups when it grows; a table that is already large
// enough is left as it is. n counts at least the groups s holds already:
// the first probe of a partial built without an index re-inserts all of
// them, however few its caller asked room for.
func (x *groupIndex) reserve(s *groupSlab, n int) {
	n = max(n, s.len())
	if n <= len(x.slots)*3/4 {
		return
	}
	size := 16
	for size*3/4 < n {
		size *= 2
	}
	x.slots = make([]indexSlot, size)
	x.shift = uint8(64 - bits.TrailingZeros(uint(size)))
	for g := range int32(s.len()) {
		k := keyBits(s.key(g))
		i := x.home(k)
		for x.slots[i].g != 0 {
			i = (i + 1) & (size - 1)
		}
		x.slots[i] = indexSlot{k, g + 1}
	}
}

// observeRun folds rows [start, start+n) — all belonging to one group —
// into the group's cells, using run-length shortcuts where the aggregate
// allows: Count adds n in O(1); metric aggregates run a register-local loop
// over the metric column slice; CountDistinct over other dimensions stays
// per-row.
func (c *compiled) observeRun(cells []cell, b *brick.Batch, start, n int) {
	end := start + n
	for i := range c.q.Aggregates {
		cl := &cells[i]
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
	// groupFor returns the index of key's group, adding the group with
	// fresh cells when absent. Adding may move the slab's cells: a view
	// taken before the call is stale after it.
	groupFor(key []uint32) int32
	// slab returns the kernel's group state.
	slab() *groupSlab
}

// absorb folds a sealed brick slab into the combiner acc. A group new to
// the combiner takes the brick's cells as they are — sketches included, so
// src must not be used again — and an existing group merges them; called
// in ascending brick-id order, every group's cells fold in that order.
func absorb(acc accumulator, src *groupSlab) {
	dst := acc.slab()
	for g := range int32(src.len()) {
		n := dst.len()
		d := acc.groupFor(src.key(g))
		cells := dst.at(d)
		if int(d) == n {
			copy(cells, src.at(g))
			continue
		}
		for i, o := range src.at(g) {
			cells[i].merge(o)
		}
	}
}

// denseDomainLimit caps the slot count of a dense kernel (16 KiB of slots).
const denseDomainLimit = 4096

// kernelSet holds one kernel of each type. A pass worker keeps one in its
// encScratch and picks from it for every brick, so slot arrays, maps and
// slab buffers are reused brick after brick; a Combiner keeps a set of its
// own, reused query after query when the Combiner is.
type kernelSet struct {
	global globalAcc
	dense  denseAcc
	packed packedAcc
	keyN   keyNAcc
}

// pick empties and returns the kernel for c's GROUP BY over bounds, the
// inclusive value range of every schema dimension. Every range-partitioned
// value lies inside its brick's bounds and inside the schema domain, which
// is what lets the dense and packed kernels address groups by offset.
func (ks *kernelSet) pick(c *compiled, bounds [][2]uint32) accumulator {
	var acc accumulator
	switch {
	case len(c.groupIdx) == 0:
		ks.global.c = c
		acc = &ks.global
	case ks.dense.fit(c, bounds):
		acc = &ks.dense
	case ks.packed.fit(c, bounds):
		acc = &ks.packed
	default:
		ks.keyN.prepare(c)
		acc = &ks.keyN
	}
	acc.slab().reset(c)
	return acc
}

// observeRow folds row r of a columnar batch into a group's cells.
func (c *compiled) observeRow(cells []cell, dims [][]uint32, metrics [][]float64, r int) {
	for i := range c.q.Aggregates {
		if di := c.distinctIdx[i]; di >= 0 {
			cells[i].observeDistinct(dims[di][r])
			continue
		}
		v := 1.0 // Count observes 1 per row via count field anyway
		if mi := c.metricIdx[i]; mi >= 0 {
			v = metrics[mi][r]
		}
		cells[i].observe(v)
	}
}

// globalAcc is the scalar kernel for global aggregates: column-at-a-time
// accumulation into per-aggregate registers, no lookup and no key on the
// hot path. An empty scan leaves it with zero groups, like every kernel.
type globalAcc struct {
	c *compiled
	groupSlab
}

func (a *globalAcc) groupFor([]uint32) int32 {
	if len(a.cells) == 0 {
		return a.add(nil)
	}
	return 0
}

func (a *globalAcc) observeBatch(dims [][]uint32, metrics [][]float64, rows int, sel []int32) {
	n := rows
	if sel != nil {
		n = len(sel)
	}
	if n == 0 {
		return
	}
	cells := a.at(a.groupFor(nil))
	for i := range a.c.q.Aggregates {
		cl := &cells[i]
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

// denseAcc addresses groups by their point in the bounded group domain,
// so the hot loop does array indexing instead of map lookups.
type denseAcc struct {
	c *compiled
	groupSlab
	bounds [][2]uint32
	// slots holds, for each point of the group domain (row-major over
	// c.groupIdx), 1 + the index of its group, or 0 while it has none.
	slots []int32
}

// fit adopts bounds when their group domain has at most denseDomainLimit
// points.
func (a *denseAcc) fit(c *compiled, bounds [][2]uint32) bool {
	domain := 1
	for _, gi := range c.groupIdx {
		if domain *= int(bounds[gi][1]-bounds[gi][0]) + 1; domain > denseDomainLimit {
			return false
		}
	}
	a.c, a.bounds = c, bounds
	if cap(a.slots) < domain {
		a.slots = make([]int32, domain)
	} else {
		a.slots = a.slots[:domain]
		clear(a.slots)
	}
	return true
}

func (a *denseAcc) observeBatch(dims [][]uint32, metrics [][]float64, rows int, sel []int32) {
	if len(a.c.groupIdx) == 1 {
		// One grouped dimension, the common dashboard shape: the slot is the
		// value's offset.
		keys, lo := dims[a.c.groupIdx[0]], a.bounds[a.c.groupIdx[0]][0]
		if sel == nil {
			for r := 0; r < rows; r++ {
				a.c.observeRow(a.at(a.slot1(keys[r]-lo, keys[r])), dims, metrics, r)
			}
		} else {
			for _, r := range sel {
				a.c.observeRow(a.at(a.slot1(keys[r]-lo, keys[r])), dims, metrics, int(r))
			}
		}
		return
	}
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

// slot1 returns the group at domain offset idx of a one-dimension domain,
// adding it under value v when absent.
func (a *denseAcc) slot1(idx, v uint32) int32 {
	g := a.slots[idx] - 1
	if g < 0 {
		g = a.add([]uint32{v})
		a.slots[idx] = g + 1
	}
	return g
}

func (a *denseAcc) observeRow(dims [][]uint32, metrics [][]float64, r int) {
	idx := 0
	for _, gi := range a.c.groupIdx {
		b := a.bounds[gi]
		idx = idx*int(b[1]-b[0]+1) + int(dims[gi][r]-b[0])
	}
	g := a.slots[idx] - 1
	if g < 0 {
		g = a.addRow(a.c.groupIdx, dims, r)
		a.slots[idx] = g + 1
	}
	a.c.observeRow(a.at(g), dims, metrics, r)
}

func (a *denseAcc) groupFor(key []uint32) int32 {
	idx := 0
	for i, gi := range a.c.groupIdx {
		b := a.bounds[gi]
		idx = idx*int(b[1]-b[0]+1) + int(key[i]-b[0])
	}
	g := a.slots[idx] - 1
	if g < 0 {
		g = a.add(key)
		a.slots[idx] = g + 1
	}
	return g
}

// packedAcc keys groups by one uint64: each grouped dimension contributes
// bits.Len32(hi−lo) bits of (value − lower bound), so the hot path probes
// an integer-keyed map instead of building a byte-string key per row.
type packedAcc struct {
	c *compiled
	groupSlab
	lo    []uint32 // per grouped dimension
	shift []uint8
	index map[uint64]int32
}

// fit adopts bounds when the packed key fits 64 bits — always for one or
// two grouped dimensions.
func (a *packedAcc) fit(c *compiled, bounds [][2]uint32) bool {
	a.lo, a.shift = a.lo[:0], a.shift[:0]
	total := 0
	for _, gi := range c.groupIdx {
		b := bounds[gi]
		a.lo = append(a.lo, b[0])
		a.shift = append(a.shift, uint8(total))
		if total += bits.Len32(b[1] - b[0]); total > 64 {
			return false
		}
	}
	a.c = c
	if a.index == nil {
		a.index = make(map[uint64]int32)
	}
	clear(a.index)
	return true
}

func (a *packedAcc) observeBatch(dims [][]uint32, metrics [][]float64, rows int, sel []int32) {
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

func (a *packedAcc) observeRow(dims [][]uint32, metrics [][]float64, r int) {
	var k uint64
	for i, gi := range a.c.groupIdx {
		k |= uint64(dims[gi][r]-a.lo[i]) << a.shift[i]
	}
	g, ok := a.index[k]
	if !ok {
		g = a.addRow(a.c.groupIdx, dims, r)
		a.index[k] = g
	}
	a.c.observeRow(a.at(g), dims, metrics, r)
}

func (a *packedAcc) groupFor(key []uint32) int32 {
	var k uint64
	for i, v := range key {
		k |= uint64(v-a.lo[i]) << a.shift[i]
	}
	g, ok := a.index[k]
	if !ok {
		g = a.add(key)
		a.index[k] = g
	}
	return g
}

// keyNAcc is the fallback for group domains no uint64 can pack: the same
// groupIndex a Partial uses, probed with the row's key gathered into a
// reused buffer, so no group costs an allocation of its own.
type keyNAcc struct {
	c *compiled
	groupSlab
	index  groupIndex
	keyBuf []uint32
}

func (a *keyNAcc) prepare(c *compiled) {
	a.c = c
	a.keyBuf = slices.Grow(a.keyBuf[:0], len(c.groupIdx))[:len(c.groupIdx)]
	clear(a.index.slots)
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
		a.keyBuf[i] = dims[gi][r]
	}
	a.c.observeRow(a.at(a.groupFor(a.keyBuf)), dims, metrics, r)
}

func (a *keyNAcc) groupFor(key []uint32) int32 { return a.index.find(&a.groupSlab, key) }
