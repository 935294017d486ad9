// Package cubrick is the public facade of this repository: a from-scratch
// reproduction of "Interactive Analytic DBMSs: Breaching the Scalability
// Wall" (Pedreira et al., ICDE 2021). It wires together an in-memory
// analytic DBMS with granular partitioning and adaptive compression, a
// general-purpose shard management framework (SM), service discovery, and
// a simulated multi-region fleet — and exposes the partially-sharded
// database a downstream user interacts with: create tables, load rows,
// and run CQL queries through a fault-tolerant proxy.
//
// Quick start:
//
//	db, _ := cubrick.Open(cubrick.Defaults())
//	db.CreateTable("metrics", cubrick.Schema{
//	    Dimensions: []cubrick.Dimension{{Name: "ds", Max: 365, Buckets: 73}},
//	    Metrics:    []cubrick.Metric{{Name: "value"}},
//	})
//	db.Load("metrics", [][]uint32{{1}}, [][]float64{{42}})
//	res, _ := db.Query("SELECT SUM(value) FROM metrics")
package cubrick

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"cubrick/internal/brick"
	"cubrick/internal/cql"
	"cubrick/internal/cubrick"
	"cubrick/internal/dict"
	"cubrick/internal/engine"
	"cubrick/internal/proxy"
	"cubrick/internal/randutil"
)

// Schema, Dimension and Metric describe a table's dimensional layout.
// Dimension values are normalized to uint32 by the caller (dictionary
// encoding is the usual approach); each dimension's domain is
// range-partitioned into buckets, which jointly define the table's bricks.
type (
	// Schema is a table schema.
	Schema = brick.Schema
	// Dimension is one dimension column.
	Dimension = brick.Dimension
	// Metric is one metric column.
	Metric = brick.Metric
)

// Config configures an in-process deployment. The zero value is not
// usable; start from Defaults.
type Config struct {
	// Deployment is the underlying multi-region deployment configuration.
	Deployment cubrick.DeploymentConfig
	// Proxy configures the query proxy.
	Proxy proxy.Config
	// Epoch is the simulated start time.
	Epoch time.Time
}

// Defaults returns a three-region deployment configuration suitable for
// examples and tests.
func Defaults() Config {
	return Config{
		Deployment: cubrick.DefaultDeploymentConfig(),
		Epoch:      time.Date(2021, 1, 1, 0, 0, 0, 0, time.UTC),
	}
}

// DB is an open Cubrick deployment: the user-facing handle.
type DB struct {
	dep   *cubrick.Deployment
	proxy *proxy.Proxy

	mu    sync.Mutex
	dicts map[string]*dict.Set // per-table dictionary sets
}

// Open builds a full in-process deployment: fleet, coordination store,
// discovery, Shard Manager, Cubrick nodes and proxy.
func Open(cfg Config) (*DB, error) {
	dep, err := cubrick.Open(cfg.Deployment, cfg.Epoch)
	if err != nil {
		return nil, err
	}
	p := proxy.New(dep, cfg.Proxy, randutil.New(cfg.Deployment.Seed+7919))
	return &DB{dep: dep, proxy: p, dicts: make(map[string]*dict.Set)}, nil
}

// EnableDictionary declares a dimension of a table as dictionary-encoded:
// string labels are assigned dense uint32 ids on ingest (Encode), queries
// may filter with `dim = 'label'` in CQL, and results decode back through
// Decode. The dictionary's capacity is the dimension's value domain.
func (db *DB) EnableDictionary(table, dim string) error {
	info, err := db.dep.Catalog.Table(table)
	if err != nil {
		return err
	}
	i := info.Schema.DimIndex(dim)
	if i < 0 {
		return fmt.Errorf("cubrick: table %s has no dimension %q", table, dim)
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	set, ok := db.dicts[table]
	if !ok {
		set = dict.NewSet()
		db.dicts[table] = set
	}
	set.Add(dim, info.Schema.Dimensions[i].Max)
	return nil
}

// dictFor returns the dictionary of a table dimension, or nil.
func (db *DB) dictFor(table, dim string) *dict.Dictionary {
	db.mu.Lock()
	defer db.mu.Unlock()
	set, ok := db.dicts[table]
	if !ok {
		return nil
	}
	return set.Get(dim)
}

// Encode maps a string label to its dimension id, assigning one on first
// sight (the ingestion path).
func (db *DB) Encode(table, dim, value string) (uint32, error) {
	d := db.dictFor(table, dim)
	if d == nil {
		return 0, fmt.Errorf("cubrick: %s.%s is not dictionary-encoded", table, dim)
	}
	return d.Encode(value)
}

// Decode maps a dimension id back to its string label.
func (db *DB) Decode(table, dim string, id uint32) (string, error) {
	d := db.dictFor(table, dim)
	if d == nil {
		return "", fmt.Errorf("cubrick: %s.%s is not dictionary-encoded", table, dim)
	}
	return d.Decode(id)
}

// resolveStringFilters folds `dim = 'label'` predicates into the numeric
// filter via the table's dictionaries. Unknown labels produce an
// impossible range, so the query returns an empty (not erroneous) result —
// standard DB semantics for filtering on a value that was never ingested.
func (db *DB) resolveStringFilters(table string, q *engine.Query, stringEq map[string]string) error {
	if len(stringEq) == 0 {
		return nil
	}
	if q.Filter == nil {
		q.Filter = make(map[string][2]uint32, len(stringEq))
	}
	for dim, label := range stringEq {
		d := db.dictFor(table, dim)
		if d == nil {
			return fmt.Errorf("cubrick: %s.%s is not dictionary-encoded; use numeric predicates", table, dim)
		}
		id, err := d.Lookup(label)
		if err != nil {
			// Never-seen label: match nothing.
			q.Filter[dim] = [2]uint32{1, 0}
			continue
		}
		q.Filter[dim] = [2]uint32{id, id}
	}
	return nil
}

// Deployment exposes the underlying deployment for advanced use
// (failure injection, SM operations, simulated time).
func (db *DB) Deployment() *cubrick.Deployment { return db.dep }

// Proxy exposes the query proxy (stats, blacklist operations).
func (db *DB) Proxy() *proxy.Proxy { return db.proxy }

// CreateTable registers a table and places its partitions in every region.
func (db *DB) CreateTable(name string, schema Schema) error {
	_, err := db.dep.CreateTable(name, schema)
	return err
}

// DropTable removes a table everywhere.
func (db *DB) DropTable(name string) error { return db.dep.DropTable(name) }

// Tables lists the catalog: name, partition count, version.
func (db *DB) Tables() []cubrick.TableInfo { return db.dep.Catalog.Tables() }

// Load ingests rows: dims[i] are the dimension values and metrics[i] the
// metric values of row i.
func (db *DB) Load(table string, dims [][]uint32, metrics [][]float64) error {
	return db.dep.Load(table, dims, metrics)
}

// Result is a finalized query result with its Cubrick metadata.
type Result = cubrick.QueryResult

// Query parses and executes one CQL SELECT through the proxy, with
// transparent cross-region retries.
func (db *DB) Query(query string) (*Result, error) {
	st, err := cql.Parse(query)
	if err != nil {
		return nil, err
	}
	sel, ok := st.(*cql.SelectStmt)
	if !ok {
		return nil, errors.New("cubrick: Query only accepts SELECT; use Tables/Describe for metadata")
	}
	if err := db.resolveStringFilters(sel.Table, sel.Query, sel.StringEq); err != nil {
		return nil, err
	}
	if sel.JoinTable != "" {
		return db.proxy.QueryJoin(sel.Table, sel.JoinTable, sel.Query)
	}
	return db.proxy.Query(sel.Table, sel.Query)
}

// CreateReplicatedTable registers a small dimension table replicated in
// full to every host, enabling node-local star joins (see Query with
// "FROM fact JOIN dims").
func (db *DB) CreateReplicatedTable(name string, schema Schema) error {
	_, err := db.dep.CreateReplicatedTable(name, schema)
	return err
}

// LoadReplicated ingests rows into a replicated table on every host.
func (db *DB) LoadReplicated(table string, dims [][]uint32, metrics [][]float64) error {
	return db.dep.LoadReplicated(table, dims, metrics)
}

// QueryStruct executes a programmatically built engine query.
func (db *DB) QueryStruct(table string, q *engine.Query) (*Result, error) {
	return db.proxy.Query(table, q)
}

// Describe returns a table's schema.
func (db *DB) Describe(table string) (Schema, error) {
	info, err := db.dep.Catalog.Table(table)
	if err != nil {
		return Schema{}, err
	}
	return info.Schema, nil
}

// Repartition evaluates the partition policy for a table and re-partitions
// it if needed, returning a human-readable summary.
func (db *DB) Repartition(table string) (string, error) {
	decision, parts, err := db.dep.Repartition(table)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%s: %d partitions", decision, parts), nil
}

// Advance moves simulated time forward (heartbeats, migrations and
// discovery propagation all run on simulated time).
func (db *DB) Advance(d time.Duration) {
	db.dep.Clock.Advance(d)
	db.dep.SM.Sweep()
}
