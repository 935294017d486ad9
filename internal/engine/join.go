package engine

import (
	"errors"
	"fmt"

	"cubrick/internal/brick"
)

// JoinSpec describes a co-located star join between a sharded fact table
// and a replicated dimension table (§II-B: systems "replicate ... tables
// which are smaller and used more frequently between all cluster nodes, in
// order to speed up joins with larger distributed tables"). Because the
// dimension table is present on every host, the join runs entirely
// node-local: each partition joins against its local replica and partial
// results merge exactly as for single-table queries.
type JoinSpec struct {
	// Table is the replicated dimension table's name (metadata only; the
	// executor receives its store directly).
	Table string
	// On is the key column: a dimension present in both the fact schema
	// and the dimension schema.
	On string
	// Attrs are dimension-table columns made visible to GroupBy/Filter
	// under their own names.
	Attrs []string
}

// Validate checks the join against both schemas and returns the key and
// attribute column indexes in the dimension schema.
func (j *JoinSpec) Validate(fact, dim brick.Schema) (keyIdx int, attrIdx []int, err error) {
	if j.On == "" {
		return 0, nil, errors.New("engine: join needs an ON column")
	}
	if fact.DimIndex(j.On) < 0 {
		return 0, nil, fmt.Errorf("engine: fact table has no dimension %q", j.On)
	}
	keyIdx = dim.DimIndex(j.On)
	if keyIdx < 0 {
		return 0, nil, fmt.Errorf("engine: dimension table has no column %q", j.On)
	}
	if len(j.Attrs) == 0 {
		return 0, nil, errors.New("engine: join selects no attributes")
	}
	for _, a := range j.Attrs {
		i := dim.DimIndex(a)
		if i < 0 {
			return 0, nil, fmt.Errorf("engine: dimension table has no column %q", a)
		}
		if fact.DimIndex(a) >= 0 {
			return 0, nil, fmt.Errorf("engine: join attribute %q shadows a fact column", a)
		}
		attrIdx = append(attrIdx, i)
	}
	return keyIdx, attrIdx, nil
}

// validateJoined checks the query against the *joined* column space: fact
// dimensions and metrics plus the join attributes.
func (q *Query) validateJoined(fact brick.Schema, join *JoinSpec) error {
	if len(q.Aggregates) == 0 {
		return errors.New("engine: query needs at least one aggregate")
	}
	isAttr := func(name string) bool {
		for _, a := range join.Attrs {
			if a == name {
				return true
			}
		}
		return false
	}
	for _, a := range q.Aggregates {
		switch a.Func {
		case Count:
		case CountDistinct:
			if fact.DimIndex(a.Metric) < 0 && !isAttr(a.Metric) {
				return fmt.Errorf("engine: COUNT(DISTINCT %s): not a dimension or join attribute", a.Metric)
			}
		default:
			if fact.MetricIndex(a.Metric) < 0 {
				return fmt.Errorf("engine: unknown metric %q", a.Metric)
			}
		}
	}
	for _, g := range q.GroupBy {
		if fact.DimIndex(g) < 0 && !isAttr(g) {
			return fmt.Errorf("engine: unknown group column %q", g)
		}
	}
	for d := range q.Filter {
		if fact.DimIndex(d) < 0 && !isAttr(d) {
			return fmt.Errorf("engine: unknown filter column %q", d)
		}
	}
	if q.OrderBy != "" && !q.hasOutputColumn(q.OrderBy) {
		return fmt.Errorf("engine: ORDER BY column %q not in output", q.OrderBy)
	}
	for _, h := range q.Having {
		if !q.hasOutputColumn(h.Column) {
			return fmt.Errorf("engine: HAVING column %q not in output", h.Column)
		}
	}
	if q.Limit < 0 {
		return errors.New("engine: negative limit")
	}
	return nil
}

// ExecuteJoin runs the query over one fact partition joined against the
// local replica of the dimension table. Fact rows whose key has no match
// in the dimension table are dropped (inner join). The returned partial
// merges with other partitions' partials exactly like single-table
// partials.
func ExecuteJoin(factStore, dimStore *brick.Store, q *Query, join *JoinSpec) (*Partial, error) {
	fact := factStore.Schema()
	dim := dimStore.Schema()
	keyIdx, attrIdx, err := join.Validate(fact, dim)
	if err != nil {
		return nil, err
	}
	if err := q.validateJoined(fact, join); err != nil {
		return nil, err
	}

	// Build the hash side from the local replica: key -> attribute values.
	// Last write wins on duplicate keys (dimension tables are expected to
	// be keyed).
	lookup := make(map[uint32][]uint32)
	err = dimStore.Scan(nil, func(dims []uint32, _ []float64) error {
		attrs := make([]uint32, len(attrIdx))
		for i, ai := range attrIdx {
			attrs[i] = dims[ai]
		}
		lookup[dims[keyIdx]] = attrs
		return nil
	})
	if err != nil {
		return nil, err
	}

	attrPos := make(map[string]int, len(join.Attrs))
	for i, a := range join.Attrs {
		attrPos[a] = i
	}

	// Resolve group columns against fact dims or join attrs.
	type colRef struct {
		factIdx int // >= 0 when a fact dimension
		attrIdx int // >= 0 when a join attribute
	}
	groupRefs := make([]colRef, len(q.GroupBy))
	for i, g := range q.GroupBy {
		if fi := fact.DimIndex(g); fi >= 0 {
			groupRefs[i] = colRef{factIdx: fi, attrIdx: -1}
		} else {
			groupRefs[i] = colRef{factIdx: -1, attrIdx: attrPos[g]}
		}
	}
	metricIdx := make([]int, len(q.Aggregates))
	distinctRefs := make([]colRef, len(q.Aggregates))
	for i, a := range q.Aggregates {
		metricIdx[i] = -1
		distinctRefs[i] = colRef{factIdx: -1, attrIdx: -1}
		switch a.Func {
		case Count:
		case CountDistinct:
			if fi := fact.DimIndex(a.Metric); fi >= 0 {
				distinctRefs[i] = colRef{factIdx: fi, attrIdx: -1}
			} else {
				distinctRefs[i] = colRef{factIdx: -1, attrIdx: attrPos[a.Metric]}
			}
		default:
			metricIdx[i] = fact.MetricIndex(a.Metric)
		}
	}

	// Split the filter: fact-dimension predicates push down into the scan
	// (pruning bricks); attribute predicates apply post-join.
	var scanFilter *brick.Filter
	type attrPred struct {
		idx int
		r   [2]uint32
	}
	var attrPreds []attrPred
	if len(q.Filter) > 0 {
		for name, r := range q.Filter {
			if fi := fact.DimIndex(name); fi >= 0 {
				if scanFilter == nil {
					scanFilter = &brick.Filter{Ranges: make(map[int][2]uint32)}
				}
				scanFilter.Ranges[fi] = r
			} else {
				attrPreds = append(attrPreds, attrPred{idx: attrPos[name], r: r})
			}
		}
	}

	factKeyIdx := fact.DimIndex(join.On)
	p := NewPartial(q)
	keyVals := make([]uint32, len(groupRefs))
	err = factStore.Scan(scanFilter, func(dims []uint32, metrics []float64) error {
		p.RowsScanned++
		attrs, ok := lookup[dims[factKeyIdx]]
		if !ok {
			return nil // inner join: unmatched fact row dropped
		}
		for _, ap := range attrPreds {
			v := attrs[ap.idx]
			if v < ap.r[0] || v > ap.r[1] {
				return nil
			}
		}
		for i, ref := range groupRefs {
			if ref.factIdx >= 0 {
				keyVals[i] = dims[ref.factIdx]
			} else {
				keyVals[i] = attrs[ref.attrIdx]
			}
		}
		cells := p.at(p.groupFor(keyVals))
		for i := range q.Aggregates {
			if ref := distinctRefs[i]; ref.factIdx >= 0 {
				cells[i].observeDistinct(dims[ref.factIdx])
				continue
			} else if ref.attrIdx >= 0 {
				cells[i].observeDistinct(attrs[ref.attrIdx])
				continue
			}
			v := 1.0
			if metricIdx[i] >= 0 {
				v = metrics[metricIdx[i]]
			}
			cells[i].observe(v)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}
