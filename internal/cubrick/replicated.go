package cubrick

import (
	"errors"
	"fmt"
	"maps"
	"slices"

	"cubrick/internal/brick"
	"cubrick/internal/engine"
	"cubrick/internal/partition"
)

// Replicated dimension tables (§II-B): every host stores a full copy, so
// joins against them run node-local with no data movement — the classic
// star-join pattern of HANA/MemSQL the paper contrasts with fully
// distributed tables.

// ErrNotReplicated is returned when a sharded table is used where a
// replicated one is required (or vice versa).
var ErrNotReplicated = errors.New("cubrick: table is not replicated")

// EnsureReplicated creates (if needed) this node's replica store of a
// replicated table: a store of the node's partition set served under the
// table's name, so a joined /partial call finds it there.
func (n *Node) EnsureReplicated(name string, schema brick.Schema) error {
	if err := n.parts.Add(name, schema); err != nil && !errors.Is(err, partition.ErrExists) {
		return err
	}
	return nil
}

// ReplicatedStore returns this node's replica of a replicated table.
func (n *Node) ReplicatedStore(name string) (*brick.Store, error) {
	st, ok := n.parts.Store(name)
	if !ok {
		return nil, fmt.Errorf("%w: no replica of %s on %s", ErrNotServing, name, n.host.Name)
	}
	return st, nil
}

// DropReplicated deletes this node's replica of a replicated table.
func (n *Node) DropReplicated(name string) { n.worker.RemovePartition(name) }

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
		d.replicatedLog = make(map[string]replicatedRows)
	}
	d.replicatedLog[name] = replicatedRows{}
	d.mu.Unlock()
	return info, nil
}

// replicatedRows is the log of a replicated table's rows, replayed as one
// batch to hosts that rejoin after losing their state.
type replicatedRows struct {
	dims    [][]uint32
	metrics [][]float64
}

// LoadReplicated ingests rows into a replicated table as one batch to every
// available node's worker, under the table's plain name, logging them so
// nodes that rejoin later can catch up. A batch with a row outside the
// schema is rejected before anything is logged or shipped.
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
	for i := range dims {
		if len(metrics[i]) != len(info.Schema.Metrics) {
			return fmt.Errorf("cubrick: row %d has %d metrics, schema has %d", i, len(metrics[i]), len(info.Schema.Metrics))
		}
		if _, err := info.Schema.BrickID(dims[i]); err != nil { // arity and domains
			return fmt.Errorf("row %d: %w", i, err)
		}
	}
	d.mu.Lock()
	log := d.replicatedLog[table]
	for i := range dims {
		log.dims = append(log.dims, slices.Clone(dims[i]))
		log.metrics = append(log.metrics, slices.Clone(metrics[i]))
	}
	d.replicatedLog[table] = log
	d.mu.Unlock()
	for _, n := range d.Nodes() {
		if !n.Host().Available() {
			continue // will catch up via ReplayReplicated on rejoin
		}
		if err := d.ship(n, table, dims, metrics); err != nil {
			return err
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
	log := maps.Clone(d.replicatedLog)
	d.mu.Unlock()
	for table, rows := range log {
		info, err := d.Catalog.Table(table)
		if err != nil {
			continue // dropped meanwhile
		}
		if err := n.EnsureReplicated(table, info.Schema); err != nil {
			return err
		}
		if err := d.ship(n, table, rows.dims, rows.metrics); err != nil {
			return err
		}
	}
	return nil
}

// ResolveJoin returns a copy of q that joins the sharded fact table
// against the replicated dimension table. The join rides in the query
// (engine.Query.Join): each host's worker answers its fact partitions
// joined against its local replica in its one brick pass, and the copy runs
// through Query like any other. Every column of the dimension table but
// the ON key is a join attribute (InferJoin).
func (d *Deployment) ResolveJoin(fact, dim string, q *engine.Query) (*engine.Query, error) {
	factInfo, err := d.Catalog.Table(fact)
	if err != nil {
		return nil, err
	}
	if factInfo.Replicated {
		return nil, fmt.Errorf("cubrick: fact table %s must be sharded", fact)
	}
	dimInfo, err := d.Catalog.Table(dim)
	if err != nil {
		return nil, err
	}
	if !dimInfo.Replicated {
		return nil, fmt.Errorf("%w: %s", ErrNotReplicated, dim)
	}
	join, err := InferJoin(factInfo.Schema, dimInfo.Schema, dim)
	if err != nil {
		return nil, err
	}
	jq := *q
	jq.Join = join
	return &jq, nil
}

// InferJoin builds the JoinSpec of a join against a dimension table: the
// ON key is the one dimension both schemas share, and every other column
// of the dimension table is an attribute the query may name.
func InferJoin(fact, dim brick.Schema, dimTable string) (*engine.JoinSpec, error) {
	join := &engine.JoinSpec{Table: dimTable}
	for _, dd := range dim.Dimensions {
		switch {
		case fact.DimIndex(dd.Name) < 0:
			join.Attrs = append(join.Attrs, dd.Name)
		case join.On != "":
			return nil, fmt.Errorf("cubrick: ambiguous join key between fact and %s (%s and %s)", dimTable, join.On, dd.Name)
		default:
			join.On = dd.Name
		}
	}
	if join.On == "" {
		return nil, fmt.Errorf("cubrick: no shared join key with %s", dimTable)
	}
	if len(join.Attrs) == 0 {
		return nil, fmt.Errorf("cubrick: dimension table %s has only the key column", dimTable)
	}
	return join, nil
}
