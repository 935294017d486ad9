package engine

import (
	"errors"
	"fmt"
	"slices"

	"cubrick/internal/brick"
)

// JoinSpec describes a co-located star join between a sharded fact table
// and a replicated dimension table (§II-B: systems "replicate ... tables
// which are smaller and used more frequently between all cluster nodes, in
// order to speed up joins with larger distributed tables"). Because the
// dimension table is present on every host, the join runs entirely
// node-local: each worker joins its fact partitions against its local
// replica, and the partials merge exactly as for single-table queries.
type JoinSpec struct {
	// Table is the replicated dimension table's name; a worker resolves it
	// to the store Run reads (Opts.Dim).
	Table string
	// On is the key column: a dimension present in both the fact schema
	// and the dimension schema.
	On string
	// Attrs are dimension-table columns made visible to GroupBy/Filter
	// under their own names.
	Attrs []string
}

// Validate checks the join against the fact table's schema; the dimension
// table's side is checked when the join runs.
func (j *JoinSpec) Validate(fact brick.Schema) error {
	if fact.DimIndex(j.On) < 0 {
		return fmt.Errorf("engine: fact table has no dimension %q to join ON", j.On)
	}
	if len(j.Attrs) == 0 {
		return errors.New("engine: join selects no attributes")
	}
	for _, a := range j.Attrs {
		if fact.DimIndex(a) >= 0 {
			return fmt.Errorf("engine: join attribute %q shadows a fact column", a)
		}
	}
	return nil
}

var errNoDim = errors.New("engine: joined query without its dimension store")

// joinPlan is a joined query split around its GROUP BY, which is pushed
// below the join (eager aggregation, Yan & Larson, VLDB '95). The join is
// many-to-one — a fact row matches the one dimension row of its ON value —
// so fact rows that agree on ON and on q's fact columns join as one group.
// Run makes its one unchanged pass over the fact stores for those columns,
// with the fact-column filters pushed down, into a combiner of its own;
// regroup then folds that combiner's groups into the caller's through the
// dimension table's key → attributes map.
//
// COUNT, MIN, MAX and COUNT(DISTINCT) equal a row-at-a-time join's: an
// attribute's hash goes into a sketch once per key group, and HLL
// registers take the max. SUM and AVG add per key group first, so they
// equal it exactly on dyadic values.
type joinPlan struct {
	// inner is the pass's query: q's fact columns and ON as its GROUP BY,
	// q's fact-column filters, and a Count in place of each COUNT(DISTINCT
	// attribute).
	inner *Query
	// out is q's output shape over the fact and dimension domains, which
	// binds cb's kernel: it sets only what picking a kernel reads (q,
	// groupIdx and domain).
	out *compiled
	// lookup maps an ON value to its attribute values, in Attrs order.
	lookup map[uint32][]uint32
	// onPos is ON's position in inner's GROUP BY.
	onPos int
	// keys says where each of q's GROUP BY values comes from.
	keys []joinCol
	// preds are the attribute filters (idx an attribute), applied to a
	// matched key group.
	preds []filterDim
	// distinct[i] is the attribute of COUNT(DISTINCT attribute) aggregate
	// i, or -1.
	distinct []int
}

// joinCol is a column of the joined key: attribute idx, or the value at
// idx of the pass's group key.
type joinCol struct {
	attr bool
	idx  int
}

// planJoin validates q against the fact schema and the dimension store's,
// splits it, and builds the key → attributes map from a scan of the
// dimension store; the last row of a key wins.
func planJoin(q *Query, fact brick.Schema, dimStore *brick.Store) (*joinPlan, error) {
	if dimStore == nil {
		return nil, errNoDim
	}
	if err := q.Validate(fact); err != nil {
		return nil, err
	}
	dim := dimStore.Schema()
	cols := append([]string{q.Join.On}, q.Join.Attrs...)
	idx := make([]int, len(cols)) // ON's dimension index, then the attributes'
	for i, c := range cols {
		if idx[i] = dim.DimIndex(c); idx[i] < 0 {
			return nil, fmt.Errorf("engine: dimension table has no column %q", c)
		}
	}
	j := &joinPlan{
		inner:    &Query{Aggregates: slices.Clone(q.Aggregates), Filter: make(map[string][2]uint32)},
		out:      &compiled{q: q, groupIdx: make([]int, len(q.GroupBy)), domain: make([][2]uint32, len(q.GroupBy))},
		lookup:   make(map[uint32][]uint32),
		keys:     make([]joinCol, len(q.GroupBy)),
		distinct: make([]int, len(q.Aggregates)),
	}
	attr := func(name string) int { return slices.Index(q.Join.Attrs, name) }
	for i, g := range q.GroupBy {
		j.out.groupIdx[i] = i
		if fi := fact.DimIndex(g); fi >= 0 {
			if !slices.Contains(j.inner.GroupBy, g) {
				j.inner.GroupBy = append(j.inner.GroupBy, g)
			}
			j.keys[i] = joinCol{idx: slices.Index(j.inner.GroupBy, g)}
			j.out.domain[i] = [2]uint32{0, fact.Dimensions[fi].Max - 1}
		} else {
			j.keys[i] = joinCol{attr: true, idx: attr(g)}
			j.out.domain[i] = [2]uint32{0, dim.Dimensions[idx[1+attr(g)]].Max - 1}
		}
	}
	if !slices.Contains(j.inner.GroupBy, q.Join.On) {
		j.inner.GroupBy = append(j.inner.GroupBy, q.Join.On)
	}
	j.onPos = slices.Index(j.inner.GroupBy, q.Join.On)
	for i, a := range q.Aggregates {
		j.distinct[i] = -1
		if a.Func == CountDistinct && fact.DimIndex(a.Metric) < 0 {
			j.distinct[i] = attr(a.Metric)
			j.inner.Aggregates[i] = Aggregate{Func: Count}
		}
	}
	for name, r := range q.Filter {
		if fact.DimIndex(name) >= 0 {
			j.inner.Filter[name] = r
		} else {
			j.preds = append(j.preds, filterDim{idx: attr(name), lo: r[0], hi: r[1]})
		}
	}
	err := dimStore.Scan(nil, func(dims []uint32, _ []float64) error {
		attrs := make([]uint32, len(idx)-1)
		for i, di := range idx[1:] {
			attrs[i] = dims[di]
		}
		j.lookup[dims[idx[0]]] = attrs
		return nil
	})
	if err != nil {
		return nil, err
	}
	return j, nil
}

// regroup folds the groups of the pass's combiner into cb, bound to j.out,
// in slab order, with the pass's scan counters: a key group without a
// dimension row is dropped (inner join), and so is one whose attributes
// fail a predicate.
func (j *joinPlan) regroup(below, cb *Combiner) {
	src, acc := below.acc.slab(), cb.acc
	cb.counts = below.counts
	key := make([]uint32, len(j.keys))
groups:
	for g := range int32(src.len()) {
		k := src.key(g)
		attrs, ok := j.lookup[k[j.onPos]]
		if !ok {
			continue
		}
		for _, p := range j.preds {
			if v := attrs[p.idx]; v < p.lo || v > p.hi {
				continue groups
			}
		}
		for i, c := range j.keys {
			if c.attr {
				key[i] = attrs[c.idx]
			} else {
				key[i] = k[c.idx]
			}
		}
		cells := acc.slab().at(acc.groupFor(key))
		for i, c := range src.at(g) {
			if a := j.distinct[i]; a >= 0 {
				// The key group has one value of the attribute, and its
				// Count cell counted the group's rows.
				cells[i].observeDistinct(attrs[a])
				cells[i].count += c.count - 1
			} else {
				cells[i].merge(c)
			}
		}
	}
}
