package netexec

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"

	"cubrick/internal/brick"
	"cubrick/internal/core"
	"cubrick/internal/engine"
)

// Cluster is the coordinator-side view of a networked Cubrick cluster: a
// set of worker URLs, a catalog of tables, and the partial-sharding layout
// that maps each table's partitions to shards (via the §IV-A monotonic
// mapping) and shards to workers. It is the multi-process counterpart of
// the in-process Deployment: placement is deliberately simple (shard id
// modulo worker count, replicas on the following workers) because the full
// placement/balancing machinery lives in internal/shardmgr; Cluster
// demonstrates the data plane.
//
// The Cluster owns one long-lived Coordinator so resilience state —
// per-host circuit breakers, the hedge latency distribution — accumulates
// across queries; configure it through Coordinator().
type Cluster struct {
	mapper core.Mapper
	client *http.Client
	coord  *Coordinator

	mu          sync.Mutex
	workers     []string // worker base URLs
	joiners     []string // workers added after creation; receive only migrated partitions
	replication int      // replica copies per partition beyond the primary
	tables      map[string]clusterTable
	// overrides maps partition names routed away from the static modulo
	// placement by a migration (see MovePartition in dualread.go).
	overrides map[string]*placementOverride
}

type clusterTable struct {
	schema     brick.Schema
	partitions int
	replicas   int // replica copies beyond the primary, fixed at create time
}

// ErrNoWorkers is returned when operations run against an empty cluster.
var ErrNoWorkers = errors.New("netexec: cluster has no workers")

// NewCluster builds a coordinator over the given worker URLs.
func NewCluster(workers []string, maxShards int64, client *http.Client) (*Cluster, error) {
	if len(workers) == 0 {
		return nil, ErrNoWorkers
	}
	if maxShards <= 0 {
		maxShards = 100000
	}
	if client == nil {
		// Scatter-gather reuses a pooled keep-alive transport; a fresh dial
		// per partial is pure coordinator overhead.
		client = &http.Client{Transport: NewTransport()}
	}
	return &Cluster{
		mapper:  core.MonotonicMapper{MaxShards: maxShards},
		client:  client,
		coord:   &Coordinator{Client: client},
		workers: append([]string(nil), workers...),
		tables:  make(map[string]clusterTable),
	}, nil
}

// Coordinator returns the cluster's long-lived coordinator, whose Policy,
// Breakers and Metrics fields configure the resilience layer for every
// query on this cluster. Configure it before issuing queries.
func (c *Cluster) Coordinator() *Coordinator {
	return c.coord
}

// SetReplication sets how many replica copies (beyond the primary) future
// CreateTable calls place per partition. Replicas land on the workers
// following the primary in the ring; n is capped at worker count - 1 since
// extra copies on the same host add nothing.
func (c *Cluster) SetReplication(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n < 0 {
		n = 0
	}
	if max := len(c.workers) - 1; n > max {
		n = max
	}
	c.replication = n
}

// Workers returns the cluster's worker URLs, joiners included.
func (c *Cluster) Workers() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := append([]string(nil), c.workers...)
	return append(out, c.joiners...)
}

// placement returns the worker URLs holding a shard: the primary followed
// by `replicas` distinct successors on the ring. Callers hold c.mu or rely
// on workers being immutable after construction (they are).
func (c *Cluster) placement(shard int64, replicas int) []string {
	n := len(c.workers)
	urls := make([]string, 0, 1+replicas)
	for i := 0; i <= replicas && i < n; i++ {
		urls = append(urls, c.workers[int((shard+int64(i))%int64(n))])
	}
	return urls
}

// CreateTable registers a table with the given partition count and creates
// each partition on its primary worker and on the cluster's configured
// replica count of successor workers.
func (c *Cluster) CreateTable(ctx context.Context, name string, schema brick.Schema, partitions int) error {
	if err := core.ValidateTableName(name); err != nil {
		return err
	}
	if err := schema.Validate(); err != nil {
		return err
	}
	if partitions < 1 {
		partitions = 1
	}
	c.mu.Lock()
	if _, ok := c.tables[name]; ok {
		c.mu.Unlock()
		return fmt.Errorf("netexec: table %q exists", name)
	}
	replicas := c.replication
	c.tables[name] = clusterTable{schema: schema, partitions: partitions, replicas: replicas}
	c.mu.Unlock()

	for p := 0; p < partitions; p++ {
		shard := c.mapper.Shard(name, p)
		for _, url := range c.placement(shard, replicas) {
			cl := &Client{BaseURL: url, HTTP: c.client}
			if err := cl.CreatePartition(ctx, core.PartitionName(name, p), schema); err != nil {
				return err
			}
		}
	}
	return nil
}

// Tables lists the catalog: name and partition count, sorted by name.
func (c *Cluster) Tables() map[string]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]int, len(c.tables))
	for name, t := range c.tables {
		out[name] = t.partitions
	}
	return out
}

// table returns a catalog entry.
func (c *Cluster) table(name string) (clusterTable, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	t, ok := c.tables[name]
	if !ok {
		return clusterTable{}, fmt.Errorf("netexec: unknown table %q", name)
	}
	return t, nil
}

// Load routes rows to partitions by dimension hash (the same routing the
// in-process deployment uses) and ships each partition's batch to its
// worker — and to each replica — as one binary columnar blob (POST
// /loadbin). Replica copies receive identical batches, so any copy can
// serve the partition's partial.
func (c *Cluster) Load(ctx context.Context, table string, dims [][]uint32, metrics [][]float64) error {
	t, err := c.table(table)
	if err != nil {
		return err
	}
	if len(dims) != len(metrics) {
		return errors.New("netexec: dims/metrics length mismatch")
	}
	byPart := make(map[int][]int) // partition -> row indexes
	for i := range dims {
		p := core.RouteRow(dims[i], t.partitions)
		byPart[p] = append(byPart[p], i)
	}
	parts := make([]int, 0, len(byPart))
	for p := range byPart {
		parts = append(parts, p)
	}
	sort.Ints(parts)
	for _, p := range parts {
		idx := byPart[p]
		bd := make([][]uint32, len(idx))
		bm := make([][]float64, len(idx))
		for j, i := range idx {
			bd[j] = dims[i]
			bm[j] = metrics[i]
		}
		shard := c.mapper.Shard(table, p)
		part := core.PartitionName(table, p)
		if err := c.loadPartition(ctx, part, shard, t.replicas, bd, bm); err != nil {
			return err
		}
	}
	return nil
}

// loadAttempts is how many times a partition's batch is offered before the
// load fails. The default query policy's three attempts wait 7–15 ms in
// all, less than a cutover's fence-to-flip gap on a busy host; twelve under
// the same backoff wait 0.8–1.6 s.
const loadAttempts = 12

// loadPartition ships one partition's batch to its placement, retrying
// retryable failures — a fenced partition mid-cutover, a worker briefly
// down — under the default policy's backoff. Placement is re-resolved on
// every attempt: a batch that hit a fenced source during a cutover pause
// retries into the new owner once the flip lands, which is what makes the
// migration's ingest unavailability a latency bump instead of lost rows.
func (c *Cluster) loadPartition(ctx context.Context, part string, shard int64, replicas int, bd [][]uint32, bm [][]float64) error {
	var lastErr error
	for a := 0; a < loadAttempts; a++ {
		if err := ctx.Err(); err != nil {
			if lastErr == nil {
				lastErr = err
			}
			return lastErr
		}
		urls, _ := c.route(part, shard, replicas)
		lastErr = c.loadOnce(ctx, part, urls, bd, bm)
		if lastErr == nil {
			return nil
		}
		if ClassifyError(lastErr) == Terminal {
			return lastErr
		}
		if a < loadAttempts-1 {
			c.coord.count("netexec.load.retries")
			if serr := sleepCtx(ctx, jitter(DefaultQueryPolicy().backoffFor(a))); serr != nil {
				return lastErr
			}
		}
	}
	return lastErr
}

// loadOnce ships the batch to the primary and every replica once.
func (c *Cluster) loadOnce(ctx context.Context, part string, urls []string, bd [][]uint32, bm [][]float64) error {
	for ri, url := range urls {
		epoch, err := (&Client{BaseURL: url, HTTP: c.client}).Load(ctx, part, bd, bm)
		if err != nil {
			return err
		}
		if ri == 0 {
			// The primary's response carries the partition's post-ingest
			// epoch; feeding it to the coordinator invalidates any cached
			// result over this partition before the next query can hit.
			c.coord.ObserveEpoch(part, epoch)
		}
	}
	return nil
}

// Targets returns the scatter-gather targets of a table, replicas
// included.
func (c *Cluster) Targets(table string) ([]Target, error) {
	t, err := c.table(table)
	if err != nil {
		return nil, err
	}
	targets := make([]Target, t.partitions)
	for p := 0; p < t.partitions; p++ {
		part := core.PartitionName(table, p)
		urls, dual := c.route(part, c.mapper.Shard(table, p), t.replicas)
		targets[p] = Target{URL: urls[0], Partition: part, Replicas: urls[1:], Dual: dual}
	}
	return targets, nil
}

// Query executes a grouped aggregation over the networked cluster using
// the cluster's shared coordinator (and therefore its resilience policy
// and breaker state).
func (c *Cluster) Query(ctx context.Context, table string, q *engine.Query) (*engine.Result, error) {
	// The plan span (catalog lookup + target placement) is a sibling of
	// the fan-out span, both under whatever root span ctx carries, so the
	// trace splits coordinator time into plan vs. execution.
	_, span := c.coord.Tracer.StartSpan(ctx, "coordinator.plan")
	span.SetAttr("table", table)
	targets, err := c.Targets(table)
	span.EndErr(err)
	if err != nil {
		return nil, err
	}
	return c.coord.Query(ctx, targets, q)
}

// Fanout returns how many distinct workers a table's queries touch — the
// partial-sharding containment, visible across processes. Replicas do not
// count: they are failover capacity, not per-query fan-out.
func (c *Cluster) Fanout(table string) (int, error) {
	targets, err := c.Targets(table)
	if err != nil {
		return 0, err
	}
	distinct := make(map[string]bool)
	for _, t := range targets {
		distinct[t.URL] = true
	}
	return len(distinct), nil
}

// Health pings every worker; it returns the unreachable ones.
func (c *Cluster) Health(ctx context.Context) (unhealthy []string) {
	for _, url := range c.Workers() {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/health", nil)
		if err != nil {
			unhealthy = append(unhealthy, url)
			continue
		}
		resp, err := c.client.Do(req)
		if err != nil || resp.StatusCode != http.StatusOK {
			unhealthy = append(unhealthy, url)
		}
		if resp != nil {
			resp.Body.Close()
		}
	}
	return unhealthy
}
