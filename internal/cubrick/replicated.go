package cubrick

import (
	"errors"
	"fmt"

	"cubrick/internal/brick"
	"cubrick/internal/core"
	"cubrick/internal/engine"
)

// Replicated dimension tables (§II-B): every host stores a full copy, so
// joins against them run node-local with no data movement — the classic
// star-join pattern of HANA/MemSQL the paper contrasts with fully
// distributed tables.

// ErrNotReplicated is returned when a sharded table is used where a
// replicated one is required (or vice versa).
var ErrNotReplicated = errors.New("cubrick: table is not replicated")

// EnsureReplicated creates (if needed) this node's replica store of a
// replicated table.
func (n *Node) EnsureReplicated(name string, schema brick.Schema) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.replicated == nil {
		n.replicated = make(map[string]*brick.Store)
	}
	if _, ok := n.replicated[name]; ok {
		return nil
	}
	st, err := n.parts.NewStore(schema)
	if err != nil {
		return err
	}
	n.replicated[name] = st
	return nil
}

// ReplicatedStore returns this node's replica of a replicated table.
func (n *Node) ReplicatedStore(name string) (*brick.Store, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	st, ok := n.replicated[name]
	if !ok {
		return nil, fmt.Errorf("%w: no replica of %s on %s", ErrNotServing, name, n.host.Name)
	}
	return st, nil
}

// DropReplicated deletes this node's replica of a replicated table.
func (n *Node) DropReplicated(name string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.replicated, name)
}

// InsertReplicated adds a row to this node's replica.
func (n *Node) InsertReplicated(name string, dims []uint32, metrics []float64) error {
	st, err := n.ReplicatedStore(name)
	if err != nil {
		return err
	}
	return st.Insert(dims, metrics)
}

// ExecuteJoinPartial runs a star join of one fact partition against this
// node's local replica of the dimension table.
func (n *Node) ExecuteJoinPartial(shard int64, partName, dimTable string, q *engine.Query, join *engine.JoinSpec) (*engine.Partial, error) {
	factStore, err := n.store(shard, partName)
	if err != nil {
		return nil, err
	}
	dimStore, err := n.ReplicatedStore(dimTable)
	if err != nil {
		return nil, err
	}
	return engine.ExecuteJoin(factStore, dimStore, q, join)
}

// CreateReplicatedTable registers a replicated dimension table and
// materializes an empty replica on every node in every region.
func (d *Deployment) CreateReplicatedTable(name string, schema brick.Schema) (TableInfo, error) {
	info, err := d.Catalog.CreateReplicatedTable(name, schema)
	if err != nil {
		return TableInfo{}, err
	}
	for _, n := range d.Nodes() {
		if err := n.EnsureReplicated(name, schema); err != nil {
			return TableInfo{}, err
		}
	}
	d.mu.Lock()
	if d.replicatedLog == nil {
		d.replicatedLog = make(map[string][]replicatedRow)
	}
	d.replicatedLog[name] = nil
	d.mu.Unlock()
	return info, nil
}

// replicatedRow is one logged row of a replicated table, replayed to hosts
// that rejoin after losing their state.
type replicatedRow struct {
	dims    []uint32
	metrics []float64
}

// LoadReplicated ingests rows into a replicated table on every available
// node, logging them so nodes that rejoin later can catch up.
func (d *Deployment) LoadReplicated(table string, dims [][]uint32, metrics [][]float64) error {
	info, err := d.Catalog.Table(table)
	if err != nil {
		return err
	}
	if !info.Replicated {
		return fmt.Errorf("%w: %s", ErrNotReplicated, table)
	}
	if len(dims) != len(metrics) {
		return errors.New("cubrick: dims/metrics length mismatch")
	}
	d.mu.Lock()
	for i := range dims {
		d.replicatedLog[table] = append(d.replicatedLog[table], replicatedRow{
			dims:    append([]uint32(nil), dims[i]...),
			metrics: append([]float64(nil), metrics[i]...),
		})
	}
	d.mu.Unlock()
	for _, n := range d.Nodes() {
		if !n.Host().Available() {
			continue // will catch up via ReplayReplicated on rejoin
		}
		for i := range dims {
			if err := n.InsertReplicated(table, dims[i], metrics[i]); err != nil {
				return err
			}
		}
	}
	return nil
}

// ReplayReplicated rebuilds every replicated table's replica on one host —
// called when a host rejoins after repair with empty state.
func (d *Deployment) ReplayReplicated(host string) error {
	n, err := d.Node(host)
	if err != nil {
		return err
	}
	d.mu.Lock()
	log := make(map[string][]replicatedRow, len(d.replicatedLog))
	for t, rows := range d.replicatedLog {
		log[t] = rows
	}
	d.mu.Unlock()
	for table, rows := range log {
		info, err := d.Catalog.Table(table)
		if err != nil {
			continue // dropped meanwhile
		}
		if err := n.EnsureReplicated(table, info.Schema); err != nil {
			return err
		}
		for _, row := range rows {
			if err := n.InsertReplicated(table, row.dims, row.metrics); err != nil {
				return err
			}
		}
	}
	return nil
}

// QueryJoin executes a star join in one region: each fact partition joins
// against its host's local replica of the dimension table, and the
// coordinator merges the partials. Join attributes are inferred: any
// GroupBy or Filter column that is not a fact column resolves against the
// dimension table.
func (d *Deployment) QueryJoin(region, factTable, dimTable string, q *engine.Query, coordinatorPart int) (*QueryResult, error) {
	factInfo, err := d.Catalog.Table(factTable)
	if err != nil {
		return nil, err
	}
	if factInfo.Replicated {
		return nil, fmt.Errorf("cubrick: fact table %s must be sharded", factTable)
	}
	dimInfo, err := d.Catalog.Table(dimTable)
	if err != nil {
		return nil, err
	}
	if !dimInfo.Replicated {
		return nil, fmt.Errorf("%w: %s", ErrNotReplicated, dimTable)
	}
	join, err := InferJoin(factInfo.Schema, dimInfo.Schema, dimTable, q)
	if err != nil {
		return nil, err
	}

	// Co-located joins have no /partial form, so they run serially in
	// process over the same plan and draws as Query, in partition order.
	p, err := d.plan(region, factInfo, true)
	if err != nil {
		return nil, err
	}
	merged := engine.NewPartial(q)
	for i, host := range p.hosts {
		n, err := d.Node(host)
		if err == nil {
			var part *engine.Partial
			part, err = n.ExecuteJoinPartial(d.Catalog.ShardOf(factTable, i), core.PartitionName(factTable, i), dimTable, q, join)
			if err == nil {
				err = merged.Merge(part)
			}
		}
		if err != nil {
			return nil, fmt.Errorf("%w: %w", ErrRegionUnavailable, err)
		}
	}
	return p.result(region, factInfo, merged.Finalize(), coordinatorPart), nil
}

// InferJoin builds the JoinSpec for a query: the ON key must be shared by
// both schemas, and every query column that is not a fact column becomes a
// join attribute.
func InferJoin(fact, dim brick.Schema, dimTable string, q *engine.Query) (*engine.JoinSpec, error) {
	// The ON column: prefer an explicit single shared dimension.
	var on string
	for _, dd := range dim.Dimensions {
		if fact.DimIndex(dd.Name) >= 0 {
			if on != "" {
				return nil, fmt.Errorf("cubrick: ambiguous join key between fact and %s (%s and %s)", dimTable, on, dd.Name)
			}
			on = dd.Name
		}
	}
	if on == "" {
		return nil, fmt.Errorf("cubrick: no shared join key with %s", dimTable)
	}
	attrSet := make(map[string]bool)
	for _, g := range q.GroupBy {
		if fact.DimIndex(g) < 0 && dim.DimIndex(g) >= 0 {
			attrSet[g] = true
		}
	}
	for f := range q.Filter {
		if fact.DimIndex(f) < 0 && dim.DimIndex(f) >= 0 {
			attrSet[f] = true
		}
	}
	if len(attrSet) == 0 {
		// The join is still meaningful as a semi-join filter; expose the
		// key itself so validation passes.
		attrSet[on] = true
	}
	join := &engine.JoinSpec{Table: dimTable, On: on}
	for _, dd := range dim.Dimensions {
		if attrSet[dd.Name] && dd.Name != on {
			join.Attrs = append(join.Attrs, dd.Name)
		}
	}
	if len(join.Attrs) == 0 {
		// Semi-join: use any non-key attribute if present, else error.
		for _, dd := range dim.Dimensions {
			if dd.Name != on {
				join.Attrs = append(join.Attrs, dd.Name)
				break
			}
		}
	}
	if len(join.Attrs) == 0 {
		return nil, fmt.Errorf("cubrick: dimension table %s has only the key column", dimTable)
	}
	return join, nil
}
