package cubrick

import (
	"errors"
	"fmt"

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
func (n *Node) DropReplicated(name string) { n.parts.Drop(name) }

// InsertReplicated adds a row to this node's replica.
func (n *Node) InsertReplicated(name string, dims []uint32, metrics []float64) error {
	st, err := n.ReplicatedStore(name)
	if err != nil {
		return err
	}
	return st.Insert(dims, metrics)
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
