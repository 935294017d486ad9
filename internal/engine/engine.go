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
	"slices"
	"sort"

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

// Validate checks the query against a schema.
func (q *Query) Validate(schema brick.Schema) error {
	if len(q.Aggregates) == 0 {
		return errors.New("engine: query needs at least one aggregate")
	}
	for _, a := range q.Aggregates {
		switch a.Func {
		case Count:
		case CountDistinct:
			if schema.DimIndex(a.Metric) < 0 {
				return fmt.Errorf("engine: COUNT(DISTINCT %s): not a dimension", a.Metric)
			}
		default:
			if schema.MetricIndex(a.Metric) < 0 {
				return fmt.Errorf("engine: unknown metric %q", a.Metric)
			}
		}
	}
	for _, g := range q.GroupBy {
		if schema.DimIndex(g) < 0 {
			return fmt.Errorf("engine: unknown group dimension %q", g)
		}
	}
	for d := range q.Filter {
		if schema.DimIndex(d) < 0 {
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
	// projFullSerial is projFull with every column materialized, for the
	// row-at-a-time serial reference path.
	projFullSerial brick.Projection
	// projPartSerial is proj with every column materialized, for the serial
	// reference path's per-row MatchesAt filtering.
	projPartSerial brick.Projection
	// encGroups[i] reports whether GROUP BY dimension i (groupIdx order) is
	// requested as an encoded view on fully covered bricks; encGroup is set
	// when at least one is.
	encGroups []bool
	encGroup  bool
	// filterDims is the filter as a deterministic list (ascending dimension
	// index) the per-encoding skippers walk.
	filterDims []filterDim
	// noSkippers is Opts.noSkippers: the brick visit evaluates the filter
	// row-at-a-time and skips blob-bounds pruning.
	noSkippers bool
}

// filterDim is one filter predicate resolved to a dimension index.
type filterDim struct {
	idx    int
	lo, hi uint32
}

// compile validates the query against the schema and resolves columns.
// The options shape the projections: which columns arrive as encoded views
// and whether the decoded-column cache is bypassed.
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
		noSkippers:  o.noSkippers,
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
	serialFull := append([]brick.ColRequest(nil), dims...)
	partSerial := append([]brick.ColRequest(nil), dims...)
	part := dims
	if c.filter != nil {
		for di := range c.filter.Ranges {
			if partSerial[di] == brick.ColSkip {
				partSerial[di] = brick.ColNeed
			}
			if part[di] == brick.ColSkip {
				// Filter-only columns arrive as encoded views so the
				// skipper evaluates the range once per run or dictionary
				// code; the decoder materializes them anyway when the
				// encoding has no such structure.
				if o.noSkippers {
					part[di] = brick.ColNeed
				} else {
					part[di] = brick.ColGroupEncoded
				}
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
	c.encGroups = make([]bool, len(c.groupIdx))
	if !o.noEncodedKernels {
		for i, gi := range c.groupIdx {
			eligible := true
			for _, di := range c.distinctIdx {
				if di == gi {
					eligible = false
				}
			}
			if eligible {
				c.encGroups[i] = true
				c.encGroup = true
				full[gi] = brick.ColGroupEncoded
			}
		}
	}
	c.proj = brick.Projection{Dims: part, Metrics: mets, NoCache: o.NoCache}
	c.projFull = brick.Projection{Dims: full, Metrics: mets, NoCache: o.NoCache}
	c.projFullSerial = brick.Projection{Dims: serialFull, Metrics: mets}
	c.projPartSerial = brick.Projection{Dims: partSerial, Metrics: mets}
}

// Execute runs the query over one partition's store, returning a partial.
// It is the serial, row-at-a-time reference implementation; production
// paths use Scheduler.Run, which produces identical results.
func Execute(store *brick.Store, q *Query) (*Partial, error) {
	c, err := compile(store.Schema(), q, Opts{})
	if err != nil {
		return nil, err
	}
	plan, err := store.PlanScan(c.filter)
	if err != nil {
		return nil, err
	}
	p := NewPartial(q)
	p.BricksPruned = int64(plan.Pruned)
	keyVals := make([]uint32, len(c.groupIdx))
	for ti := range plan.Tasks {
		t := &plan.Tasks[ti]
		p.BricksVisited++
		if !t.Full && c.filter != nil {
			// Same blob-bounds pruning as the brick pass, so cost
			// counters (Decompressions) stay identical across paths.
			if t.PruneEncoded(c.filter) {
				continue
			}
		}
		if t.Compressed() {
			p.Decompressions++
		}
		proj := &c.projPartSerial
		if t.Full {
			proj = &c.projFullSerial
		}
		err := t.VisitBatch(proj, func(b *brick.Batch) error {
			dims, metrics, rows := b.Dims, b.Metrics, b.Rows
			for r := 0; r < rows; r++ {
				if !t.Full && !c.filter.MatchesAt(dims, r) {
					continue
				}
				p.RowsScanned++
				for i, gi := range c.groupIdx {
					keyVals[i] = dims[gi][r]
				}
				c.observeRow(p.at(p.groupFor(keyVals)), dims, metrics, r)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return p, nil
}

// NewPartial returns an empty partial for the query, used as the merge
// identity by coordinators.
func NewPartial(q *Query) *Partial {
	return &Partial{query: q, groupSlab: groupSlab{arity: len(q.GroupBy), nAggs: len(q.Aggregates)}}
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
// is overwritten by the next.
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
	// A HAVING column resolves to its last match among the columns.
	having := make([]int, len(q.Having))
	for i, h := range q.Having {
		for j, c := range res.Columns {
			if c == h.Column {
				having[i] = j
			}
		}
	}
	w, n := len(res.Columns), src.len()
	flat := make([]float64, n*w)
	if n > 0 {
		res.Rows = make([][]float64, 0, n)
	}
rows:
	for g := range int32(n) {
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
	res.Rows = q.order(res.Columns, res.Rows)
	return res
}

// order sorts rows by the ORDER BY column (its first match among cols),
// ties and queries without ORDER BY by the group key columns, and cuts
// them to the LIMIT. Under a LIMIT k below the row count the first k are
// copied out into an array of their own: the result never pins the full
// one (a result cache would, for its lifetime).
func (q *Query) order(cols []string, rows [][]float64) [][]float64 {
	orderIdx := -1
	if q.OrderBy != "" {
		orderIdx = slices.Index(cols, q.OrderBy)
	}
	desc, keys := q.Desc, len(q.GroupBy)
	cmp := func(a, b []float64) int {
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
	}
	slices.SortFunc(rows, cmp)
	k := q.Limit
	if k <= 0 || k >= len(rows) {
		return rows
	}
	w := len(cols)
	flat, top := make([]float64, k*w), make([][]float64, k)
	for i, r := range rows[:k] {
		top[i] = flat[i*w:][:w:w]
		copy(top[i], r)
	}
	return top
}
