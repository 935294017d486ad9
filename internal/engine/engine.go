// Package engine implements Cubrick's single-node query execution: filtered
// scans over a brick store, grouped aggregation, ordering and limits. Every
// node executes the same plan over its local partition and produces a
// Partial; the query coordinator merges partials from all partitions and
// finalizes the result (§IV: "Each node eventually returns a partial
// result, which are merged and materialized on a query coordinator node").
package engine

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
	"sync"

	"cubrick/internal/brick"
	"cubrick/internal/hll"
)

// AggFunc is an aggregation function.
type AggFunc int

const (
	// Sum adds metric values.
	Sum AggFunc = iota
	// Count counts rows (the metric name is ignored).
	Count
	// Min keeps the smallest metric value.
	Min
	// Max keeps the largest metric value.
	Max
	// Avg averages metric values; partials carry (sum, count) so merging
	// stays exact.
	Avg
	// CountDistinct estimates the number of distinct values of a
	// *dimension* column via a HyperLogLog sketch (~1.6% error). Sketches
	// merge losslessly across partitions, so the distributed estimate
	// equals the single-node one.
	CountDistinct
)

// String implements fmt.Stringer.
func (f AggFunc) String() string {
	switch f {
	case Sum:
		return "sum"
	case Count:
		return "count"
	case Min:
		return "min"
	case Max:
		return "max"
	case Avg:
		return "avg"
	case CountDistinct:
		return "count_distinct"
	default:
		return fmt.Sprintf("AggFunc(%d)", int(f))
	}
}

// Aggregate is one aggregation in the select list.
type Aggregate struct {
	Func AggFunc
	// Metric names the column aggregated: a metric column for
	// Sum/Min/Max/Avg, a dimension column for CountDistinct, ignored for
	// Count.
	Metric string
	Alias  string // output column name; defaults to func(metric)
}

// Name returns the output column name.
func (a Aggregate) Name() string {
	if a.Alias != "" {
		return a.Alias
	}
	if a.Func == Count {
		return "count(*)"
	}
	return fmt.Sprintf("%s(%s)", a.Func, a.Metric)
}

// Query is a grouped aggregation over one table.
type Query struct {
	// Aggregates is the select list (at least one).
	Aggregates []Aggregate
	// GroupBy lists dimension names to group on (may be empty for a
	// global aggregate).
	GroupBy []string
	// Filter maps dimension name -> inclusive [lo, hi] value range.
	Filter map[string][2]uint32
	// OrderBy names an output column (aggregate name or group dimension)
	// to sort the final result by; empty means sort by group key.
	OrderBy string
	// Desc reverses the sort order.
	Desc bool
	// Limit truncates the final result (0 = unlimited).
	Limit int
	// Having filters groups by their aggregate outputs, applied at
	// finalize time on the coordinator (after merging, before
	// order/limit).
	Having []HavingCond
	// Join, when set, joins the table to a replicated dimension table:
	// GroupBy, Filter and COUNT(DISTINCT) may then name its attributes too.
	Join *JoinSpec `json:",omitempty"`
}

// HavingCond is one post-aggregation predicate.
type HavingCond struct {
	// Column names an output column (aggregate name or group dimension).
	Column string
	// Op is one of "=", "<", "<=", ">", ">=".
	Op string
	// Value is the comparison operand.
	Value float64
}

// matches evaluates the condition against a value.
func (h HavingCond) matches(v float64) bool {
	switch h.Op {
	case "=":
		return v == h.Value
	case "<":
		return v < h.Value
	case "<=":
		return v <= h.Value
	case ">":
		return v > h.Value
	case ">=":
		return v >= h.Value
	default:
		return false
	}
}

// Validate checks the query against a schema: the table's, plus the join
// attributes when the query joins (the attributes are resolved against the
// dimension table's schema when the join runs).
func (q *Query) Validate(schema brick.Schema) error {
	if len(q.Aggregates) == 0 {
		return errors.New("engine: query needs at least one aggregate")
	}
	if q.Join != nil {
		if err := q.Join.Validate(schema); err != nil {
			return err
		}
	}
	isDim := func(name string) bool {
		return schema.DimIndex(name) >= 0 || q.Join != nil && slices.Contains(q.Join.Attrs, name)
	}
	for _, a := range q.Aggregates {
		switch a.Func {
		case Count:
		case CountDistinct:
			if !isDim(a.Metric) {
				return fmt.Errorf("engine: COUNT(DISTINCT %s): not a dimension", a.Metric)
			}
		default:
			if schema.MetricIndex(a.Metric) < 0 {
				return fmt.Errorf("engine: unknown metric %q", a.Metric)
			}
		}
	}
	for _, g := range q.GroupBy {
		if !isDim(g) {
			return fmt.Errorf("engine: unknown group dimension %q", g)
		}
	}
	for d := range q.Filter {
		if !isDim(d) {
			return fmt.Errorf("engine: unknown filter dimension %q", d)
		}
	}
	if q.OrderBy != "" && !q.hasOutputColumn(q.OrderBy) {
		return fmt.Errorf("engine: ORDER BY column %q not in output", q.OrderBy)
	}
	for _, h := range q.Having {
		if !q.hasOutputColumn(h.Column) {
			return fmt.Errorf("engine: HAVING column %q not in output", h.Column)
		}
		switch h.Op {
		case "=", "<", "<=", ">", ">=":
		default:
			return fmt.Errorf("engine: HAVING operator %q unsupported", h.Op)
		}
	}
	if q.Limit < 0 {
		return errors.New("engine: negative limit")
	}
	return nil
}

func (q *Query) hasOutputColumn(name string) bool {
	for _, g := range q.GroupBy {
		if g == name {
			return true
		}
	}
	for _, a := range q.Aggregates {
		if a.Name() == name {
			return true
		}
	}
	return false
}

// cell is the accumulator set for one aggregate within one group. The
// sketch is lazily allocated, only for CountDistinct cells.
type cell struct {
	sum    float64
	count  int64
	min    float64
	max    float64
	sketch *hll.Sketch
}

func newCell() cell {
	return cell{min: math.Inf(1), max: math.Inf(-1)}
}

func (c *cell) observe(v float64) {
	c.sum += v
	c.count++
	if v < c.min {
		c.min = v
	}
	if v > c.max {
		c.max = v
	}
}

// observeDistinct folds one dimension value into the cell's sketch.
func (c *cell) observeDistinct(v uint32) {
	if c.sketch == nil {
		c.sketch = hll.New()
	}
	c.sketch.Add(hll.Hash64(uint64(v)))
	c.count++
}

func (c *cell) merge(o cell) {
	c.sum += o.sum
	c.count += o.count
	if o.min < c.min {
		c.min = o.min
	}
	if o.max > c.max {
		c.max = o.max
	}
	if o.sketch != nil {
		if c.sketch == nil {
			c.sketch = hll.New()
		}
		c.sketch.Merge(o.sketch)
	}
}

func (c *cell) finalize(f AggFunc) float64 {
	switch f {
	case Sum:
		return c.sum
	case Count:
		return float64(c.count)
	case Min:
		if c.count == 0 {
			return 0
		}
		return c.min
	case Max:
		if c.count == 0 {
			return 0
		}
		return c.max
	case Avg:
		if c.count == 0 {
			return 0
		}
		return c.sum / float64(c.count)
	case CountDistinct:
		if c.sketch == nil {
			return 0
		}
		// Round: distinct counts are integers; sub-1% noise reads badly.
		return math.Round(c.sketch.Estimate())
	default:
		return 0
	}
}

// Partial is an unfinalised grouped aggregation from one partition. It can
// be merged with other partials of the same query and then finalized.
//
// Its groups live in a groupSlab, the brick pass's own type: a group is an
// index into flat key and cell arrays. The index finding a group by key is
// built the first time something probes (groupFor), so a Partial that is
// only marshalled or finalized never builds it.
type Partial struct {
	query *Query
	groupSlab
	index groupIndex
	// RowsScanned counts rows visited (post-filter), for instrumentation.
	RowsScanned int64
	// BricksVisited and BricksPruned count the bricks the scan touched vs
	// skipped via bound pruning, so fan-out experiments can attribute
	// latency to data actually read.
	BricksVisited int64
	BricksPruned  int64
	// Decompressions counts bricks that paid a transient decode because
	// they were resident in the compressed tier when scanned.
	Decompressions int64
}

// groupFor returns the index of key's group, adding the group with fresh
// cells when absent. As in every slab, a view from at is valid only until
// the next add.
func (p *Partial) groupFor(key []uint32) int32 { return p.index.find(&p.groupSlab, key) }

// grow makes room for n groups in all, in the slab and in the index.
func (p *Partial) grow(n int) {
	if d := n - p.Groups(); d > 0 {
		p.reserve(d)
	}
	p.index.reserve(&p.groupSlab, n)
}

// compiled is a query plan: the schema-resolved column indexes every
// kernel needs, computed once per execution.
type compiled struct {
	q *Query
	// groupIdx are the dimension indexes of the GROUP BY columns.
	groupIdx []int
	// metricIdx[i] is the metric column of aggregate i, or -1.
	metricIdx []int
	// distinctIdx[i] is the dimension column of a CountDistinct aggregate
	// i, or -1.
	distinctIdx []int
	filter      *brick.Filter
	// domain is every schema dimension's value range [0, Max−1]: the
	// bounds the combiner's kernel is picked over.
	domain [][2]uint32

	// proj is the projection for partially covered bricks: referenced
	// columns plus the filter dimensions. Filter-only dimensions are
	// requested as encoded views so the compiled skippers can evaluate the
	// predicate once per run or dictionary code instead of per row.
	proj brick.Projection
	// projFull is the projection for fully covered bricks: referenced
	// columns only — filter-irrelevant dimensions are never decoded.
	// Encoded-eligible group dimensions ask for the run/dictionary view.
	projFull brick.Projection
	// encGroup is set when at least one GROUP BY dimension is requested as
	// an encoded view on fully covered bricks.
	encGroup bool
	// filterDims is the filter as a deterministic list (ascending dimension
	// index) the per-encoding skippers walk.
	filterDims []filterDim
}

// filterDim is one filter predicate resolved to a dimension index.
type filterDim struct {
	idx    int
	lo, hi uint32
}

// compile validates the query against the schema and resolves columns.
// The options decide whether the projections bypass the decoded-column
// cache.
func compile(schema brick.Schema, q *Query, o Opts) (*compiled, error) {
	if err := q.Validate(schema); err != nil {
		return nil, err
	}
	c := &compiled{
		q:           q,
		groupIdx:    make([]int, len(q.GroupBy)),
		metricIdx:   make([]int, len(q.Aggregates)),
		distinctIdx: make([]int, len(q.Aggregates)),
		domain:      make([][2]uint32, len(schema.Dimensions)),
	}
	for i, d := range schema.Dimensions {
		c.domain[i] = [2]uint32{0, d.Max - 1}
	}
	for i, g := range q.GroupBy {
		c.groupIdx[i] = schema.DimIndex(g)
	}
	for i, a := range q.Aggregates {
		c.metricIdx[i], c.distinctIdx[i] = -1, -1
		switch a.Func {
		case Count:
		case CountDistinct:
			c.distinctIdx[i] = schema.DimIndex(a.Metric)
		default:
			c.metricIdx[i] = schema.MetricIndex(a.Metric)
		}
	}
	if len(q.Filter) > 0 {
		c.filter = &brick.Filter{Ranges: make(map[int][2]uint32, len(q.Filter))}
		for name, r := range q.Filter {
			c.filter.Ranges[schema.DimIndex(name)] = r
		}
	}
	c.buildProjections(schema, o)
	return c, nil
}

// buildProjections derives the referenced-column sets scans hand to
// VisitBatch. Fully covered bricks skip filter-only dimensions entirely
// (their values cannot change the result); partially covered bricks
// additionally materialize the filter dimensions for MatchesAt.
func (c *compiled) buildProjections(schema brick.Schema, o Opts) {
	dims := make([]brick.ColRequest, len(schema.Dimensions))
	mets := make([]bool, len(schema.Metrics))
	for _, gi := range c.groupIdx {
		dims[gi] = brick.ColNeed
	}
	for _, di := range c.distinctIdx {
		if di >= 0 {
			dims[di] = brick.ColNeed
		}
	}
	for _, mi := range c.metricIdx {
		if mi >= 0 {
			mets[mi] = true
		}
	}
	full := append([]brick.ColRequest(nil), dims...)
	part := dims
	if c.filter != nil {
		for di := range c.filter.Ranges {
			if part[di] == brick.ColSkip {
				// Filter-only columns arrive as encoded views so the
				// skipper evaluates the range once per run or dictionary
				// code; the decoder materializes them anyway when the
				// encoding has no such structure.
				part[di] = brick.ColGroupEncoded
			}
		}
		c.filterDims = make([]filterDim, 0, len(c.filter.Ranges))
		for di, r := range c.filter.Ranges {
			c.filterDims = append(c.filterDims, filterDim{idx: di, lo: r[0], hi: r[1]})
		}
		sort.Slice(c.filterDims, func(i, j int) bool { return c.filterDims[i].idx < c.filterDims[j].idx })
	}
	// Grouped dimensions that no CountDistinct reads can be aggregated
	// straight off their run or dictionary structure, whatever the GROUP BY
	// arity: composite keys go through run intersection, code tuples, or a
	// one-time scratch materialization (see encoded.go).
	for _, gi := range c.groupIdx {
		if !slices.Contains(c.distinctIdx, gi) {
			c.encGroup = true
			full[gi] = brick.ColGroupEncoded
		}
	}
	c.proj = brick.Projection{Dims: part, Metrics: mets, NoCache: o.NoCache}
	c.projFull = brick.Projection{Dims: full, Metrics: mets, NoCache: o.NoCache}
}

// partialPool recycles merge partials with their slab and index buffers,
// so a coordinator that releases each query's partial grows none of them
// again once they fit its widest answer.
var partialPool = sync.Pool{New: func() any { return new(Partial) }}

// NewPartial returns an empty partial for the query, used as the merge
// identity by coordinators. A caller that is done with it may Release it;
// one that keeps it simply never does.
func NewPartial(q *Query) *Partial {
	p := partialPool.Get().(*Partial)
	p.query, p.arity, p.nAggs = q, len(q.GroupBy), len(q.Aggregates)
	return p
}

// Release empties p — cells (dropping their sketch pointers), keys, index
// slots and counters — and returns it with its buffers to the pool
// NewPartial draws from. Nothing may use p afterwards; a Result p
// finalized shares nothing with it.
func (p *Partial) Release() {
	clear(p.cells)
	clear(p.index.slots)
	*p = Partial{groupSlab: groupSlab{keys: p.keys[:0], cells: p.cells[:0]}, index: p.index}
	partialPool.Put(p)
}

// compatible reports whether two queries produce structurally and
// semantically mergeable partials: equal QuerySignatures, i.e. the same
// GROUP BY columns and the same aggregate functions over the same inputs,
// position by position. Comparing only aggregate *counts* would silently
// merge different queries into garbage. Cosmetic fields (aliases, order,
// limit, having) do not affect accumulator state and are ignored.
func compatible(a, b *Query) bool {
	if a == nil || b == nil || a == b {
		return true
	}
	return QuerySignature(a) == QuerySignature(b)
}

// Merge folds another partial of the same query into p.
func (p *Partial) Merge(o *Partial) error {
	if o == nil {
		return nil
	}
	if !compatible(p.query, o.query) {
		return errors.New("engine: merging partials of different queries")
	}
	// A group new to p gets fresh cells that o's merge into, so p shares no
	// sketch with o.
	p.grow(o.Groups())
	for g := range int32(o.Groups()) {
		cells := p.at(p.groupFor(o.key(g)))
		for i, c := range o.at(g) {
			cells[i].merge(c)
		}
	}
	p.RowsScanned += o.RowsScanned
	p.BricksVisited += o.BricksVisited
	p.BricksPruned += o.BricksPruned
	p.Decompressions += o.Decompressions
	return nil
}

// Groups returns the number of groups accumulated so far.
func (p *Partial) Groups() int { return p.len() }

// Result is a finalized query result.
type Result struct {
	// Columns is the output header: group dimensions then aggregates.
	Columns []string
	// Rows are the output tuples: group values (as float64 for
	// uniformity) followed by aggregate values.
	Rows [][]float64
	// RowsScanned is the total rows visited across all partitions.
	RowsScanned int64
	// BricksVisited and BricksPruned report the scan's brick-level
	// selectivity across all partitions: how much data was actually read
	// vs skipped by granular-partitioning bound pruning.
	BricksVisited int64
	BricksPruned  int64
	// Decompressions is how many visited bricks paid a transient decode.
	Decompressions int64
	// Coverage is the fraction of partitions whose partials merged into
	// this result. Exact queries always report 1; a coordinator running
	// under a degradation policy (netexec.QueryPolicy.MinCoverage < 1) may
	// return less when partitions stayed unreachable after retries.
	Coverage float64
	// MissingPartitions names the partitions that did not contribute,
	// sorted; empty when Coverage is 1.
	MissingPartitions []string
}

// Finalize applies HAVING, orders and limits the partial's groups into a
// Result. Every row is written into one flat array, and a row HAVING drops
// is overwritten by the next. Without an ORDER BY column among the result's
// columns the rows are in key order: when every group's key and index pack
// into one uint64 (keyOrder) the groups are sorted as integers and the rows
// written in that order, so no row comparator runs.
func (p *Partial) Finalize() *Result {
	q := p.query
	res := &Result{
		Columns:        make([]string, 0, len(q.GroupBy)+len(q.Aggregates)),
		RowsScanned:    p.RowsScanned,
		BricksVisited:  p.BricksVisited,
		BricksPruned:   p.BricksPruned,
		Decompressions: p.Decompressions,
		Coverage:       1,
	}
	res.Columns = append(res.Columns, q.GroupBy...)
	for _, a := range q.Aggregates {
		res.Columns = append(res.Columns, a.Name())
	}
	src := &p.groupSlab
	if len(q.GroupBy) == 0 && p.Groups() == 0 {
		// SQL semantics: a global aggregate (no GROUP BY) over zero rows
		// still yields exactly one row — COUNT(*) of an empty set is 0.
		src = &groupSlab{nAggs: len(q.Aggregates)}
		src.add(nil)
	}
	// A HAVING column resolves to its last match among the columns, the
	// ORDER BY column to its first.
	having := make([]int, len(q.Having))
	for i, h := range q.Having {
		for j, c := range res.Columns {
			if c == h.Column {
				having[i] = j
			}
		}
	}
	orderIdx := -1
	if q.OrderBy != "" {
		orderIdx = slices.Index(res.Columns, q.OrderBy)
	}
	var byKey []uint64
	sorted := false
	if orderIdx < 0 {
		byKey, sorted = src.keyOrder()
	}
	w, n := len(res.Columns), src.len()
	flat := make([]float64, n*w)
	if n > 0 {
		res.Rows = make([][]float64, 0, n)
	}
rows:
	for r := range n {
		g := int32(r)
		if sorted {
			g = int32(byKey[r])
		}
		row := flat[len(res.Rows)*w:][:w:w]
		for i, v := range src.key(g) {
			row[i] = float64(v)
		}
		for i, c := range src.at(g) {
			row[len(q.GroupBy)+i] = c.finalize(q.Aggregates[i].Func)
		}
		for i, h := range q.Having {
			if !h.matches(row[having[i]]) {
				continue rows
			}
		}
		res.Rows = append(res.Rows, row)
	}
	if !sorted {
		q.sortRows(res.Rows, orderIdx)
	}
	res.Rows = q.limit(res.Rows, w)
	return res
}

// keyOrder returns s's group indexes in ascending key order, key column 0
// most significant, when each group's key and index pack into one uint64:
// every key column in the bits its largest value needs, the index below
// them. ok is false when they need more than 64 bits.
func (s *groupSlab) keyOrder() (order []uint64, ok bool) {
	n := s.len()
	// widths[i] is first the OR of column i's values, then its bit length.
	var buf [8]uint32
	widths := append(buf[:0], make([]uint32, s.arity)...)
	for i, v := range s.keys[:n*s.arity] {
		widths[i%s.arity] |= v
	}
	idxBits := bits.Len(uint(n))
	total := idxBits
	for i, m := range widths {
		widths[i] = uint32(bits.Len32(m))
		total += int(widths[i])
	}
	if total > 64 {
		return nil, false
	}
	order = make([]uint64, n)
	for g := range order {
		var k uint64
		for i, v := range s.key(int32(g)) {
			k = k<<widths[i] | uint64(v)
		}
		order[g] = k<<idxBits | uint64(g)
	}
	slices.Sort(order)
	mask := uint64(1)<<idxBits - 1
	for i := range order {
		order[i] &= mask
	}
	return order, true
}

// sortRows sorts rows by the column at orderIdx (none when negative), ties
// and queries without one by the group key columns.
func (q *Query) sortRows(rows [][]float64, orderIdx int) {
	desc, keys := q.Desc, len(q.GroupBy)
	slices.SortFunc(rows, func(a, b []float64) int {
		if orderIdx >= 0 && a[orderIdx] != b[orderIdx] {
			if (a[orderIdx] < b[orderIdx]) != desc {
				return -1
			}
			return 1
		}
		for k, v := range a[:keys] {
			if v != b[k] {
				if v < b[k] {
					return -1
				}
				return 1
			}
		}
		return 0
	})
}

// limit cuts sorted rows of width w to the LIMIT. Under a LIMIT k below
// the row count the first k are copied out into an array of their own: the
// result never pins the full one (a result cache would, for its lifetime).
func (q *Query) limit(rows [][]float64, w int) [][]float64 {
	k := q.Limit
	if k <= 0 || k >= len(rows) {
		return rows
	}
	flat, top := make([]float64, k*w), make([][]float64, k)
	for i, r := range rows[:k] {
		top[i] = flat[i*w:][:w:w]
		copy(top[i], r)
	}
	return top
}
