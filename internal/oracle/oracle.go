// Package oracle is the reference the engine's differential walls check
// engine.Run against. It is imported by tests only: a brick-ordered
// executor written against the public brick API alone, a seeded generator
// of (schema, rows, tier mix, query) trials, and one result comparison
// whose normalisations are stated on Equal.
//
// The reference fixes every float summation order the engine does:
// within a brick, a group's cells fold its rows in row order starting from
// zero; the bricks of every store combine into one running total, stores
// in argument order and a store's bricks in ascending brick-id order, the
// way a worker folds the partitions of one /partial call into one
// combiner. For one store that is a brick pass's order. Sums therefore
// equal the engine's bit for bit even when metric values round.
package oracle

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"cubrick/internal/brick"
	"cubrick/internal/engine"
	"cubrick/internal/hll"
)

// cell is one aggregate's accumulators within one group.
type cell struct {
	sum      float64
	count    int64
	min, max float64
	sketch   *hll.Sketch
}

func (c *cell) fold(o *cell) {
	c.sum += o.sum
	c.count += o.count
	c.min, c.max = math.Min(c.min, o.min), math.Max(c.max, o.max)
	if o.sketch != nil {
		if c.sketch == nil {
			c.sketch = hll.New()
		}
		c.sketch.Merge(o.sketch)
	}
}

// group is one GROUP BY key and its cells, one per aggregate.
type group struct {
	key   []uint32
	cells []cell
}

// groups maps a printed group key to its group.
type groups struct {
	nAggs int
	m     map[string]*group
}

func newGroups(nAggs int) *groups { return &groups{nAggs: nAggs, m: map[string]*group{}} }

// at returns key's cells, adding fresh ones when absent.
func (g *groups) at(key []uint32) []cell {
	k := fmt.Sprint(key)
	gr, ok := g.m[k]
	if !ok {
		gr = &group{key: slices.Clone(key), cells: make([]cell, g.nAggs)}
		for i := range gr.cells {
			gr.cells[i] = cell{min: math.Inf(1), max: math.Inf(-1)}
		}
		g.m[k] = gr
	}
	return gr.cells
}

// fold adds every group of o into g.
func (g *groups) fold(o *groups) {
	for _, gr := range o.m {
		dst := g.at(gr.key)
		for i := range gr.cells {
			dst[i].fold(&gr.cells[i])
		}
	}
}

// Run executes q over the stores and returns the finalised result with
// the scan counters a brick pass reports: rows that passed the filter,
// bricks planned (visited) and pruned by bounds, and visited bricks that
// were compressed when scanned. A brick whose encoded blob bounds rule the
// filter out counts as visited and is not decoded.
func Run(q *engine.Query, stores ...*brick.Store) (*engine.Result, error) {
	return run(q, nil, stores)
}

// RunJoin executes q, a joined query (q.Join), over the fact stores
// against the dimension store, a row at a time: a fact row that passes
// the filter on fact columns looks its ON value up in the key → attributes
// map, built from a scan of dim in which the last row of a key wins; an
// unmatched row drops (inner join), and so does one whose attributes fail
// the filter on them. The scan counters are Run's over the fact filter.
func RunJoin(q *engine.Query, dim *brick.Store, stores ...*brick.Store) (*engine.Result, error) {
	if q.Join == nil {
		return nil, errors.New("oracle: RunJoin of a query without a join")
	}
	schema := dim.Schema()
	key := schema.DimIndex(q.Join.On)
	if key < 0 {
		return nil, fmt.Errorf("oracle: dimension table has no column %q", q.Join.On)
	}
	attrIdx := make([]int, len(q.Join.Attrs))
	for i, a := range q.Join.Attrs {
		if attrIdx[i] = schema.DimIndex(a); attrIdx[i] < 0 {
			return nil, fmt.Errorf("oracle: dimension table has no column %q", a)
		}
	}
	lookup := map[uint32][]uint32{}
	err := dim.Scan(nil, func(dims []uint32, _ []float64) error {
		attrs := make([]uint32, len(attrIdx))
		for i, ai := range attrIdx {
			attrs[i] = dims[ai]
		}
		lookup[dims[key]] = attrs
		return nil
	})
	if err != nil {
		return nil, err
	}
	return run(q, lookup, stores)
}

// run folds every store into one total, stores in argument order, joining
// each row through lookup when q joins, and finalises it.
func run(q *engine.Query, lookup map[uint32][]uint32, stores []*brick.Store) (*engine.Result, error) {
	total := newGroups(len(q.Aggregates))
	res := &engine.Result{Coverage: 1}
	for _, s := range stores {
		if err := scan(q, s, lookup, total, res); err != nil {
			return nil, err
		}
	}
	finalize(q, total, res)
	return res, nil
}

// scan folds one store into total, brick by brick, and adds its scan
// counters to res. A column q names is a dimension of the store's schema,
// or else a join attribute of the row's dimension-table match.
func scan(q *engine.Query, s *brick.Store, lookup map[uint32][]uint32, total *groups, res *engine.Result) error {
	schema := s.Schema()
	if err := q.Validate(schema); err != nil {
		return err
	}
	var filter *brick.Filter
	for name, r := range q.Filter {
		if d := schema.DimIndex(name); d >= 0 {
			if filter == nil {
				filter = &brick.Filter{Ranges: map[int][2]uint32{}}
			}
			filter.Ranges[d] = r
		}
	}
	value := func(name string, dims [][]uint32, r int, attrs []uint32) uint32 {
		if d := schema.DimIndex(name); d >= 0 {
			return dims[d][r]
		}
		return attrs[slices.Index(q.Join.Attrs, name)]
	}
	tasks, pruned := s.PlanScan(nil, filter)
	res.BricksPruned += int64(pruned)
	key := make([]uint32, len(q.GroupBy))
	all := &brick.Projection{NoCache: true} // every column materialised
	for i := range tasks {
		t := &tasks[i]
		res.BricksVisited++
		prune := filter
		if t.Full {
			prune = nil
		}
		g := newGroups(len(q.Aggregates))
		v, err := t.VisitBatch(all, prune, func(b *brick.Batch) error {
		rows:
			for r := 0; r < b.Rows; r++ {
				if !t.Full && !filter.MatchesAt(b.Dims, r) {
					continue
				}
				res.RowsScanned++
				var attrs []uint32
				if q.Join != nil {
					var ok bool
					if attrs, ok = lookup[b.Dims[schema.DimIndex(q.Join.On)][r]]; !ok {
						continue
					}
					for name, rg := range q.Filter {
						if v := value(name, b.Dims, r, attrs); v < rg[0] || v > rg[1] {
							continue rows
						}
					}
				}
				for k, name := range q.GroupBy {
					key[k] = value(name, b.Dims, r, attrs)
				}
				cells := g.at(key)
				for a, agg := range q.Aggregates {
					c := &cells[a]
					switch agg.Func {
					case engine.CountDistinct:
						if c.sketch == nil {
							c.sketch = hll.New()
						}
						c.sketch.Add(hll.Hash64(uint64(value(agg.Metric, b.Dims, r, attrs))))
						c.count++
						continue
					case engine.Count:
						c.fold(&cell{sum: 1, count: 1, min: 1, max: 1})
					default:
						v := b.Metrics[schema.MetricIndex(agg.Metric)][r]
						c.fold(&cell{sum: v, count: 1, min: v, max: v})
					}
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		if !v.Pruned && v.Compressed {
			res.Decompressions++
		}
		total.fold(g)
	}
	return nil
}

// finalize turns the groups into res's columns and rows: HAVING (a column
// named twice resolves to its last match), ORDER BY (its first match) with
// ties and unordered queries by ascending group key, then LIMIT. A global
// aggregate over no rows still yields one row of zeros.
func finalize(q *engine.Query, g *groups, res *engine.Result) {
	res.Columns = slices.Clone(q.GroupBy)
	for _, a := range q.Aggregates {
		res.Columns = append(res.Columns, a.Name())
	}
	if len(q.GroupBy) == 0 && len(g.m) == 0 {
		g.at(nil)
	}
	having := make([]int, len(q.Having))
	for i, h := range q.Having {
		for j, c := range res.Columns {
			if c == h.Column {
				having[i] = j
			}
		}
	}
rows:
	for _, gr := range g.m {
		row := make([]float64, 0, len(res.Columns))
		for _, v := range gr.key {
			row = append(row, float64(v))
		}
		for i, a := range q.Aggregates {
			row = append(row, value(a.Func, &gr.cells[i]))
		}
		for i, h := range q.Having {
			if !holds(h, row[having[i]]) {
				continue rows
			}
		}
		res.Rows = append(res.Rows, row)
	}
	order := -1
	if q.OrderBy != "" {
		order = slices.Index(res.Columns, q.OrderBy)
	}
	sort.Slice(res.Rows, func(i, j int) bool {
		a, b := res.Rows[i], res.Rows[j]
		if order >= 0 && a[order] != b[order] {
			return (a[order] < b[order]) != q.Desc
		}
		return slices.Compare(a[:len(q.GroupBy)], b[:len(q.GroupBy)]) < 0
	})
	if q.Limit > 0 && q.Limit < len(res.Rows) {
		res.Rows = res.Rows[:q.Limit]
	}
}

func value(f engine.AggFunc, c *cell) float64 {
	switch {
	case f == engine.Sum:
		return c.sum
	case f == engine.Count:
		return float64(c.count)
	case c.count == 0:
		return 0
	case f == engine.Min:
		return c.min
	case f == engine.Max:
		return c.max
	case f == engine.Avg:
		return c.sum / float64(c.count)
	default:
		return math.Round(c.sketch.Estimate())
	}
}

func holds(h engine.HavingCond, v float64) bool {
	switch h.Op {
	case "=":
		return v == h.Value
	case "<":
		return v < h.Value
	case "<=":
		return v <= h.Value
	case ">":
		return v > h.Value
	default:
		return v >= h.Value
	}
}

// Equal reports the first difference between two results, nil when there
// is none. It compares columns, rows value by value bit for bit, the four
// scan counters (RowsScanned, BricksVisited, BricksPruned, Decompressions),
// Coverage and MissingPartitions. Its normalisations:
//
//   - nil and empty Rows (or MissingPartitions) are equal;
//   - for the answer alone, compare Answer(want) with Answer(got): two
//     paths that read different bricks for the same rows (a store in
//     another tier, the coordinator's summed partials) differ in cost, not
//     in answer.
//
// Bit-for-bit sums hold against Run wherever the compared path is a brick
// pass, or one worker's /partial answer over its partitions in list order,
// so engine walls and the single-host wall use non-dyadic metrics. Walls
// through the coordinator merge host answers in arrival order, so they
// stay on dyadic metrics, whose sums are exact in any order.
func Equal(want, got *engine.Result) error {
	if !slices.Equal(want.Columns, got.Columns) {
		return fmt.Errorf("columns %v, want %v", got.Columns, want.Columns)
	}
	if len(want.Rows) != len(got.Rows) {
		return fmt.Errorf("%d rows, want %d", len(got.Rows), len(want.Rows))
	}
	for i, w := range want.Rows {
		g := got.Rows[i]
		if !slices.EqualFunc(w, g, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
			return fmt.Errorf("row %d: %v, want %v", i, g, w)
		}
	}
	type counters struct {
		rows, visited, pruned, decomp int64
		coverage                      float64
	}
	wc := counters{want.RowsScanned, want.BricksVisited, want.BricksPruned, want.Decompressions, want.Coverage}
	gc := counters{got.RowsScanned, got.BricksVisited, got.BricksPruned, got.Decompressions, got.Coverage}
	if wc != gc {
		return fmt.Errorf("rows/visited/pruned/decompressions/coverage %+v, want %+v", gc, wc)
	}
	if !slices.Equal(want.MissingPartitions, got.MissingPartitions) {
		return fmt.Errorf("missing partitions %v, want %v", got.MissingPartitions, want.MissingPartitions)
	}
	return nil
}

// Answer returns r's answer alone: its columns and rows, with the scan
// counters zero and Coverage 1.
func Answer(r *engine.Result) *engine.Result {
	return &engine.Result{Columns: r.Columns, Rows: r.Rows, Coverage: 1}
}
