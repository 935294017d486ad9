package engine

import (
	"context"
	"math"

	"cubrick/internal/brick"
	"cubrick/internal/rollup"
)

// Rollup-served execution: when a query's GROUP BY, aggregates and filters
// all derive from a maintained rollup table, the interior of its time
// window (the part covered by whole buckets) is answered from the rollup's
// pre-aggregated groups instead of scanning bricks. Exactness under
// concurrent ingest comes from partitioning the (row, time) space, never
// from assuming quiescence:
//
//	time ∈ interior, row below watermark  → rollup groups
//	time ∈ interior, row at/above watermark → delta scan (raw bricks)
//	time ∈ ragged edges                    → edge scans (raw bricks, all rows)
//
// The rollup's Serve call copies its per-brick row watermarks under the
// same lock hold that streams the groups, so the three regions are
// disjoint and exhaustive, and the combined partial is bit-identical to a
// full scan for order-independent aggregates (COUNT/MIN/MAX/COUNT
// DISTINCT exactly; SUM up to float addition order — exact whenever metric
// values are integers below 2^53, see DESIGN.md §6l).

// RollupInfo reports how a rollup-served execution decomposed the query.
type RollupInfo struct {
	// Tried is set by the serving layer (internal/partition) when it
	// consulted a rollup table for the query, and Err holds a rollup
	// failure it fell through to the brick pass on: Tried && !Hit with a
	// nil Err is a miss (ineligible shape or window).
	Tried bool
	Err   error
	// Hit reports the query was served from the rollup (possibly with
	// delta/edge scans); false means the caller must run the full path.
	Hit bool
	// Groups is how many rollup groups were folded in.
	Groups int
	// DeltaRows counts raw rows the post-watermark delta scan visited.
	DeltaRows int64
	// EdgeScans counts ragged-edge raw scans executed (0–2).
	EdgeScans int
	// Epoch is the exact ingest epoch the rollup snapshot covered.
	Epoch uint64
}

// rollupEligible reports whether q can be answered from the table:
// GROUP BY ⊆ rollup dims (the time dimension itself only at bucket width
// 1), every aggregate derivable (COUNT(DISTINCT d) needs d maintained as a
// sketch), and every filtered dimension either the time dimension or a
// rollup dimension (so the predicate applies exactly on group values).
func rollupEligible(schema brick.Schema, cfg rollup.Config, q *Query) bool {
	if q.Validate(schema) != nil {
		return false
	}
	dimPos := make(map[string]int, len(cfg.Dims))
	for i, d := range cfg.Dims {
		dimPos[d] = i
	}
	for _, g := range q.GroupBy {
		if g == cfg.TimeDim {
			if cfg.Bucket != 1 {
				return false
			}
			continue
		}
		if _, ok := dimPos[g]; !ok {
			return false
		}
	}
	distinct := make(map[string]bool, len(cfg.DistinctDims))
	for _, d := range cfg.DistinctDims {
		distinct[d] = true
	}
	for _, a := range q.Aggregates {
		if a.Func == CountDistinct && !distinct[a.Metric] {
			return false
		}
	}
	for name := range q.Filter {
		if name == cfg.TimeDim {
			continue
		}
		if _, ok := dimPos[name]; !ok {
			return false
		}
	}
	return true
}

// RollupEligible reports whether q could ever be served from a rollup with
// the given configuration — the planner metadata the CQL layer surfaces.
// A true result still requires the window to cover at least one whole
// bucket at execution time.
func RollupEligible(schema brick.Schema, cfg rollup.Config, q *Query) bool {
	return rollupEligible(schema, cfg, q)
}

// timeSplit is the window decomposition over the time dimension.
type timeSplit struct {
	// loStart/hiStart bound the covered bucket starts (inclusive).
	loStart, hiStart uint32
	// ilo/ihi are the interior's actual value bounds (inclusive).
	ilo, ihi uint32
	// left/right are the ragged edges; empty when lo > hi.
	left, right [2]uint32
	hasLeft     bool
	hasRight    bool
}

// splitWindow decomposes the effective time window [a, b] (clamped to the
// dimension domain) into whole-bucket interior and ragged edges. ok is
// false when no whole bucket fits — the rollup cannot contribute.
func splitWindow(a, b, width, max uint32) (timeSplit, bool) {
	var s timeSplit
	if b > max-1 {
		b = max - 1
	}
	if a > b {
		return s, false
	}
	// First bucket start ≥ a.
	lo := a - a%width
	if lo < a {
		if lo > math.MaxUint32-width {
			return s, false
		}
		lo += width
	}
	// Last covered bucket start: the bucket starting at st covers values
	// [st, min(st+width-1, max-1)], all of which must be ≤ b. Since b ≤
	// max-1, that means st+width-1 ≤ b, or st is the domain's final
	// (truncated) bucket and b == max-1.
	if lo > b {
		return s, false
	}
	hi := b - b%width // start of b's bucket
	end := uint64(hi) + uint64(width) - 1
	if end > uint64(b) && !(b == max-1) {
		// b's bucket sticks out past the window and is not the truncated
		// domain-edge bucket: it is edge, not interior.
		if hi < width {
			return s, false
		}
		hi -= width
	}
	if hi < lo {
		return s, false
	}
	s.loStart, s.hiStart = lo, hi
	s.ilo = lo
	iend := uint64(hi) + uint64(width) - 1
	if iend > uint64(max-1) {
		iend = uint64(max - 1)
	}
	s.ihi = uint32(iend)
	if a < lo {
		s.left, s.hasLeft = [2]uint32{a, lo - 1}, true
	}
	if s.ihi < b {
		s.right, s.hasRight = [2]uint32{s.ihi + 1, b}, true
	}
	return s, true
}

// rollupCell reconstructs the accumulator state a scan of the group's rows
// would have produced for aggregate agg.
func rollupCell(agg Aggregate, g *rollup.Group, metricIdx int, sketchIdx int) cell {
	c := newCell()
	switch agg.Func {
	case Count:
		c.sum = float64(g.Rows)
		c.count = g.Rows
		c.min, c.max = 1, 1
	case CountDistinct:
		c.count = g.Rows
		c.sketch = g.Sketches[sketchIdx]
	default: // Sum, Min, Max, Avg over a metric column
		m := g.Metrics[metricIdx]
		c.sum = m.Sum
		c.count = g.Rows
		c.min = m.Min
		c.max = m.Max
	}
	return c
}

// ExecuteRollup answers q from the rollup table plus delta/edge raw scans.
// ok=false means the query is not rollup-servable here (ineligible shape,
// no whole bucket in the window, or a brick-replacing import raced the
// hybrid scan) and the caller must fall back to the full path; the partial
// is nil in that case. A cancelled ctx stops the edge scans.
func ExecuteRollup(ctx context.Context, st *brick.Store, table *rollup.Table, q *Query) (*Partial, RollupInfo, bool, error) {
	var info RollupInfo
	cfg := table.Config()
	schema := st.Schema()
	if !rollupEligible(schema, cfg, q) {
		return nil, info, false, nil
	}
	timeIdx := schema.DimIndex(cfg.TimeDim)
	max := schema.Dimensions[timeIdx].Max
	window := [2]uint32{0, max - 1}
	if r, ok := q.Filter[cfg.TimeDim]; ok {
		window = r
	}
	split, ok := splitWindow(window[0], window[1], cfg.Bucket, max)
	if !ok {
		return nil, info, false, nil
	}

	// Resolve aggregate inputs against the rollup's layout.
	metricIdx := make([]int, len(q.Aggregates))
	sketchIdx := make([]int, len(q.Aggregates))
	for i, a := range q.Aggregates {
		metricIdx[i], sketchIdx[i] = -1, -1
		switch a.Func {
		case Count:
		case CountDistinct:
			for si, d := range cfg.DistinctDims {
				if d == a.Metric {
					sketchIdx[i] = si
				}
			}
		default:
			metricIdx[i] = schema.MetricIndex(a.Metric)
		}
	}
	// GROUP BY columns resolved to positions in the rollup group: -1 means
	// the time dimension (bucket width 1, so Start is the value).
	groupPos := make([]int, len(q.GroupBy))
	for i, gname := range q.GroupBy {
		groupPos[i] = -1
		for di, d := range cfg.Dims {
			if d == gname {
				groupPos[i] = di
			}
		}
	}
	// Non-time filters applied exactly on rollup group dim values.
	type dimFilter struct {
		pos    int
		lo, hi uint32
	}
	var dimFilters []dimFilter
	for name, r := range q.Filter {
		if name == cfg.TimeDim {
			continue
		}
		for di, d := range cfg.Dims {
			if d == name {
				dimFilters = append(dimFilters, dimFilter{pos: di, lo: r[0], hi: r[1]})
			}
		}
	}

	p := NewPartial(q)
	keyVals := make([]uint32, len(q.GroupBy))
	serveInfo, err := table.Serve(st, split.loStart, split.hiStart, func(g *rollup.Group) error {
		for _, f := range dimFilters {
			v := g.Dims[f.pos]
			if v < f.lo || v > f.hi {
				return nil
			}
		}
		for i, pos := range groupPos {
			if pos < 0 {
				keyVals[i] = g.Start
			} else {
				keyVals[i] = g.Dims[pos]
			}
		}
		k := groupKey(keyVals)
		pg, ok := p.groups[k]
		if !ok {
			pg = newGroup(keyVals, len(q.Aggregates))
			p.groups[k] = pg
		}
		for i := range q.Aggregates {
			rc := rollupCell(q.Aggregates[i], g, metricIdx[i], sketchIdx[i])
			pg.cells[i].merge(rc)
		}
		p.RowsScanned += g.Rows
		return nil
	})
	if err != nil {
		// Persistent generation churn (imports racing the catch-up): fall
		// back to the full path, which is always correct.
		if err == brick.ErrGenerationChanged {
			return nil, info, false, nil
		}
		return nil, info, false, err
	}
	info.Groups = serveInfo.Groups
	info.Epoch = serveInfo.Epoch

	// Delta scan: interior-time rows at/above the watermarks.
	deltaRows, err := scanRollupDelta(st, q, cfg.TimeDim, split, serveInfo.Marks, p)
	if err != nil {
		return nil, info, false, err
	}
	info.DeltaRows = deltaRows

	// Edge scans: the ragged window ends, over all rows.
	edges := make([][2]uint32, 0, 2)
	if split.hasLeft {
		edges = append(edges, split.left)
	}
	if split.hasRight {
		edges = append(edges, split.right)
	}
	for _, e := range edges {
		qe := *q
		qe.Filter = overrideTimeFilter(q.Filter, cfg.TimeDim, e)
		// An unshared pass on a scheduler of its own: no trace in the store
		// scheduler's fold counters.
		pe, _, err := NewScheduler(st, SchedulerConfig{}).Run(ctx, &qe, Opts{Unshared: true})
		if err != nil {
			return nil, info, false, err
		}
		if err := p.Merge(pe); err != nil {
			return nil, info, false, err
		}
		info.EdgeScans++
	}

	// A brick-replacing import during the hybrid scan voids the watermark
	// partition (the delta scan may have read replaced bricks at stale
	// offsets); discard and fall back.
	if st.Generation() != serveInfo.Gen {
		return nil, RollupInfo{}, false, nil
	}
	info.Hit = true
	return p, info, true, nil
}

// overrideTimeFilter copies filter with the time dimension pinned to r.
func overrideTimeFilter(filter map[string][2]uint32, timeDim string, r [2]uint32) map[string][2]uint32 {
	out := make(map[string][2]uint32, len(filter)+1)
	for k, v := range filter {
		out[k] = v
	}
	out[timeDim] = r
	return out
}

// scanRollupDelta folds every row at/above the per-brick watermarks whose
// time value lies in the interior window (plus the query's other filters)
// into p. Bricks wholly below their watermark are skipped without a
// decode.
func scanRollupDelta(st *brick.Store, q *Query, timeDim string, split timeSplit, marks map[uint64]int, p *Partial) (int64, error) {
	qd := *q
	qd.Filter = overrideTimeFilter(q.Filter, timeDim, [2]uint32{split.ilo, split.ihi})
	c, err := compile(st.Schema(), &qd, Opts{})
	if err != nil {
		return 0, err
	}
	plan, err := st.PlanScan(c.filter)
	if err != nil {
		return 0, err
	}
	var deltaRows int64
	keyVals := make([]uint32, len(c.groupIdx))
	for ti := range plan.Tasks {
		t := &plan.Tasks[ti]
		mark := marks[t.BrickID]
		if t.Rows() <= mark {
			continue
		}
		p.BricksVisited++
		if t.Compressed() {
			p.Decompressions++
		}
		err := t.Visit(func(dims [][]uint32, metrics [][]float64, rows int) error {
			for r := mark; r < rows; r++ {
				if !c.filter.MatchesAt(dims, r) {
					continue
				}
				deltaRows++
				var g *group
				if len(c.groupIdx) == 0 {
					k := groupKey(nil)
					var ok bool
					if g, ok = p.groups[k]; !ok {
						g = newGroup(nil, len(q.Aggregates))
						p.groups[k] = g
					}
				} else {
					for i, gi := range c.groupIdx {
						keyVals[i] = dims[gi][r]
					}
					k := groupKey(keyVals)
					var ok bool
					if g, ok = p.groups[k]; !ok {
						g = newGroup(keyVals, len(q.Aggregates))
						p.groups[k] = g
					}
				}
				c.observeRow(g.cells, dims, metrics, r)
			}
			return nil
		})
		if err != nil {
			return 0, err
		}
	}
	p.RowsScanned += deltaRows
	return deltaRows, nil
}
