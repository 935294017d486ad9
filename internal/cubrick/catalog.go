// Package cubrick implements the distributed Cubrick DBMS of the paper's
// case study (§IV): an in-memory analytic database whose tables are
// horizontally partitioned, with each partition mapped to a Shard Manager
// shard and each shard placed on a physical server by SM. Queries always
// execute on the hosts that store the data (compute pushed to storage); a
// coordinator on one of the table's hosts merges partial results.
//
// The deployment is partially sharded: a table touches only as many hosts
// as it has partitions, not the whole cluster — the property that breaches
// the scalability wall.
package cubrick

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"cubrick/internal/brick"
	"cubrick/internal/core"
)

// Catalog errors.
var (
	ErrTableExists  = errors.New("cubrick: table already exists")
	ErrNoTable      = errors.New("cubrick: unknown table")
	ErrTableTooBig  = errors.New("cubrick: table exceeds maximum size")
	ErrBadPartition = errors.New("cubrick: invalid partition")
)

// TableInfo is the catalog entry for one table.
type TableInfo struct {
	Name   string
	Schema brick.Schema
	// Partitions is the current partition count (starts at the policy's
	// initial count, changes on re-partition).
	Partitions int
	// Version increments on every re-partition, so stale clients can
	// detect layout changes.
	Version int
	// Replicated marks small dimension tables stored in full on every
	// host instead of being sharded — the pattern §II-B describes for
	// speeding up joins with larger distributed tables. Replicated
	// tables have no shard mapping; Partitions is 1.
	Replicated bool
}

// PartitionRef identifies one partition of one table.
type PartitionRef struct {
	Table     string
	Partition int
	Schema    brick.Schema
}

// Name returns the internal "table#N" name.
func (p PartitionRef) Name() string { return core.PartitionName(p.Table, p.Partition) }

// Catalog is the global table catalog, shared by all regions (each region
// stores a full copy of every table, §IV-D). It also maintains the reverse
// shard → partitions index that addShard implementations consult to learn
// "all table partitions that map to the shard" (§IV-E).
type Catalog struct {
	mapper core.Mapper
	policy core.PartitionPolicy

	mu     sync.Mutex
	tables map[string]*TableInfo
	// shardParts maps shard id -> partition name -> ref.
	shardParts map[int64]map[string]PartitionRef
}

// NewCatalog creates an empty catalog using the given shard mapping and
// partition policy.
func NewCatalog(mapper core.Mapper, policy core.PartitionPolicy) *Catalog {
	return &Catalog{
		mapper:     mapper,
		policy:     policy,
		tables:     make(map[string]*TableInfo),
		shardParts: make(map[int64]map[string]PartitionRef),
	}
}

// Mapper returns the catalog's shard mapping function.
func (c *Catalog) Mapper() core.Mapper { return c.mapper }

// Policy returns the partition policy.
func (c *Catalog) Policy() core.PartitionPolicy { return c.policy }

// CreateTable registers a table with the policy's initial partition count
// (8 in production, §IV-B) and returns its info.
func (c *Catalog) CreateTable(name string, schema brick.Schema) (TableInfo, error) {
	if err := core.ValidateTableName(name); err != nil {
		return TableInfo{}, err
	}
	if err := schema.Validate(); err != nil {
		return TableInfo{}, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.tables[name]; ok {
		return TableInfo{}, fmt.Errorf("%w: %s", ErrTableExists, name)
	}
	info := &TableInfo{Name: name, Schema: schema, Partitions: c.policy.InitialPartitions}
	if info.Partitions < 1 {
		info.Partitions = 1
	}
	c.tables[name] = info
	c.indexLocked(info)
	return *info, nil
}

// CreateReplicatedTable registers a replicated dimension table. It has no
// shard mapping: every host stores a full copy.
func (c *Catalog) CreateReplicatedTable(name string, schema brick.Schema) (TableInfo, error) {
	if err := core.ValidateTableName(name); err != nil {
		return TableInfo{}, err
	}
	if err := schema.Validate(); err != nil {
		return TableInfo{}, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.tables[name]; ok {
		return TableInfo{}, fmt.Errorf("%w: %s", ErrTableExists, name)
	}
	info := &TableInfo{Name: name, Schema: schema, Partitions: 1, Replicated: true}
	c.tables[name] = info
	return *info, nil
}

// indexLocked adds the table's partitions to the shard index.
func (c *Catalog) indexLocked(info *TableInfo) {
	for p := 0; p < info.Partitions; p++ {
		ref := PartitionRef{Table: info.Name, Partition: p, Schema: info.Schema}
		sh := c.mapper.Shard(info.Name, p)
		if c.shardParts[sh] == nil {
			c.shardParts[sh] = make(map[string]PartitionRef)
		}
		c.shardParts[sh][ref.Name()] = ref
	}
}

// unindexLocked removes the table's partitions from the shard index.
func (c *Catalog) unindexLocked(info *TableInfo) {
	for p := 0; p < info.Partitions; p++ {
		name := core.PartitionName(info.Name, p)
		sh := c.mapper.Shard(info.Name, p)
		delete(c.shardParts[sh], name)
		if len(c.shardParts[sh]) == 0 {
			delete(c.shardParts, sh)
		}
	}
}

// DropTable removes a table from the catalog.
func (c *Catalog) DropTable(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	info, ok := c.tables[name]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoTable, name)
	}
	if !info.Replicated {
		c.unindexLocked(info)
	}
	delete(c.tables, name)
	return nil
}

// Table returns a table's catalog entry.
func (c *Catalog) Table(name string) (TableInfo, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	info, ok := c.tables[name]
	if !ok {
		return TableInfo{}, fmt.Errorf("%w: %s", ErrNoTable, name)
	}
	return *info, nil
}

// Tables returns all catalog entries sorted by name.
func (c *Catalog) Tables() []TableInfo {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]TableInfo, 0, len(c.tables))
	for _, info := range c.tables {
		out = append(out, *info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// PartitionsOf returns the partitions mapped to a shard, sorted by name —
// the lookup a server performs in addShard (§IV-E step a).
func (c *Catalog) PartitionsOf(shard int64) []PartitionRef {
	c.mu.Lock()
	defer c.mu.Unlock()
	refs := make([]PartitionRef, 0, len(c.shardParts[shard]))
	for _, ref := range c.shardParts[shard] {
		refs = append(refs, ref)
	}
	sort.Slice(refs, func(i, j int) bool { return refs[i].Name() < refs[j].Name() })
	return refs
}

// ShardOf returns the shard id of one partition of a table.
func (c *Catalog) ShardOf(table string, partition int) int64 {
	return c.mapper.Shard(table, partition)
}

// ShardsOf returns the shard ids of all partitions of a table. Replicated
// tables have no shard mapping.
func (c *Catalog) ShardsOf(name string) ([]int64, error) {
	info, err := c.Table(name)
	if err != nil {
		return nil, err
	}
	if info.Replicated {
		return nil, fmt.Errorf("cubrick: table %s is replicated, not sharded", name)
	}
	return core.Shards(c.mapper, name, info.Partitions), nil
}

// Layouts returns collision-analysis layouts for every table (Fig 4a).
func (c *Catalog) Layouts() []core.TableLayout {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]core.TableLayout, 0, len(c.tables))
	for _, info := range c.tables {
		if info.Replicated {
			continue
		}
		out = append(out, core.Layout(c.mapper, info.Name, info.Partitions))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Table < out[j].Table })
	return out
}

// setPartitions records a re-partition: the table's partition count and
// version change, and the shard index is rebuilt.
func (c *Catalog) setPartitions(name string, partitions int) (TableInfo, error) {
	if partitions < 1 {
		return TableInfo{}, fmt.Errorf("%w: %d", ErrBadPartition, partitions)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	info, ok := c.tables[name]
	if !ok {
		return TableInfo{}, fmt.Errorf("%w: %s", ErrNoTable, name)
	}
	c.unindexLocked(info)
	info.Partitions = partitions
	info.Version++
	c.indexLocked(info)
	return *info, nil
}
