package cubrick

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"cubrick/internal/cluster"
	"cubrick/internal/core"
	"cubrick/internal/engine"
)

// QueryResult is a finalized distributed query result plus the metadata
// Cubrick attaches for the proxy: the current partition count rides along
// with every result so the proxy's partition cache stays fresh without
// extra round trips (§IV-C strategy 4).
type QueryResult struct {
	*engine.Result
	Table string
	// Partitions and Version mirror the catalog at execution time.
	Partitions int
	Version    int
	// Region executed the query; Coordinator merged the partials.
	Region      string
	Coordinator string
	// Fanout is how many distinct hosts participated.
	Fanout int
	// Latency is the sampled end-to-end latency (max over per-host
	// latencies plus coordination overhead).
	Latency time.Duration
	// Coverage is the fraction of partitions that contributed. Exact
	// queries always report 1; best-effort queries (QueryBestEffort) may
	// report less when partitions were skipped.
	Coverage float64
}

// ErrRegionUnavailable wraps per-host failures so the proxy knows to retry
// the query in a different region (§IV-D: "If some partition is
// unavailable, queries will fail and be retried on a different region").
var ErrRegionUnavailable = errors.New("cubrick: region cannot serve query")

// Query executes a grouped aggregation against a table in one region:
// resolve every partition's host, execute partials there (pushing compute
// to the data), merge on the coordinator, and finalize. coordinatorPart
// selects which partition's host acts as coordinator (§IV-C); pass 0 when
// unconcerned.
func (d *Deployment) Query(region, table string, q *engine.Query, coordinatorPart int) (*QueryResult, error) {
	info, err := d.Catalog.Table(table)
	if err != nil {
		return nil, err
	}
	return d.scatterGather(region, info, q, coordinatorPart, func(n *Node, shard int64, part string) (*engine.Partial, error) {
		return n.ExecutePartial(shard, part, q)
	})
}

// scatterGather is the exact-semantics query flow shared by Query and
// QueryJoin: resolve every partition of the table to its host, sample the
// fan-out's network cost, run exec on every partition concurrently and
// merge the partials in partition order.
func (d *Deployment) scatterGather(region string, info TableInfo, q *engine.Query, coordinatorPart int,
	exec func(n *Node, shard int64, part string) (*engine.Partial, error)) (*QueryResult, error) {
	table := info.Name
	svc := ServiceName(region)

	// Resolve all partitions up front; any resolution or availability
	// failure fails the whole query in this region — partial results are
	// never silently dropped (§II-C: Cubrick does not trade accuracy).
	type target struct {
		shard int64
		part  string
		node  *Node
	}
	targets := make([]target, info.Partitions)
	hostSet := make(map[string]bool)
	for p := 0; p < info.Partitions; p++ {
		shard := d.Catalog.ShardOf(table, p)
		a, err := d.SM.Assignment(svc, shard)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrRegionUnavailable, err)
		}
		host := a.Primary()
		h, err := d.Fleet.Host(host)
		if err != nil || !h.Available() {
			return nil, fmt.Errorf("%w: host %s down for %s#%d", ErrRegionUnavailable, host, table, p)
		}
		node, err := d.Node(host)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrRegionUnavailable, err)
		}
		targets[p] = target{shard: shard, part: core.PartitionName(table, p), node: node}
		hostSet[host] = true
	}

	if coordinatorPart < 0 || coordinatorPart >= info.Partitions {
		coordinatorPart = 0
	}
	coordinator := targets[coordinatorPart].node.Host().Name

	// Sample the network/tail-latency cost of the scatter-gather across
	// the distinct hosts (the Fig 5 quantity), before doing the actual
	// data work in-process.
	hosts := make([]string, 0, len(hostSet))
	for h := range hostSet {
		hosts = append(hosts, h)
	}
	latency, err := d.sampleFanOut(hosts)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrRegionUnavailable, err)
	}

	// Execute all partitions concurrently — each node's partial execution
	// is itself brick-parallel — and merge in partition order so the
	// combined partial is deterministic.
	partials := make([]*engine.Partial, len(targets))
	errs := make([]error, len(targets))
	var wg sync.WaitGroup
	for i := range targets {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			t := targets[i]
			// Follow one graceful-migration forward if the shard moved
			// after resolution (§IV-E).
			partial, err := exec(t.node, t.shard, t.part)
			if errors.Is(err, ErrNotServing) {
				if fwd, ok := t.node.ForwardTarget(t.shard); ok {
					if fnode, ferr := d.Node(fwd); ferr == nil {
						partial, err = exec(fnode, t.shard, t.part)
					}
				}
			}
			partials[i], errs[i] = partial, err
		}(i)
	}
	wg.Wait()

	merged := engine.NewPartial(q)
	for i := range targets {
		if errs[i] != nil {
			// Both %w: callers match ErrRegionUnavailable for routing and
			// the underlying cause (e.g. admission.ErrQueueFull → 429).
			return nil, fmt.Errorf("%w: %w", ErrRegionUnavailable, errs[i])
		}
		if err := merged.Merge(partials[i]); err != nil {
			return nil, err
		}
	}

	return &QueryResult{
		Result:      merged.Finalize(),
		Table:       table,
		Partitions:  info.Partitions,
		Version:     info.Version,
		Region:      region,
		Coordinator: coordinator,
		Fanout:      len(hosts),
		Latency:     latency,
		Coverage:    1,
	}, nil
}

// QueryBestEffort is the Scuba-style alternative the paper contrasts with
// partial sharding (§II-C): instead of failing when a host is down, the
// query ignores unavailable partitions and returns an inexact result with
// its coverage fraction. "This compromise might be acceptable for log
// analysis, monitoring and other workloads where accuracy is not
// fundamental" — Cubrick's BI workloads cannot make that assumption, which
// is why the production system uses partial sharding instead.
func (d *Deployment) QueryBestEffort(region, table string, q *engine.Query, coordinatorPart int) (*QueryResult, error) {
	info, err := d.Catalog.Table(table)
	if err != nil {
		return nil, err
	}
	svc := ServiceName(region)
	merged := engine.NewPartial(q)
	answered := 0
	var missing []string
	hostSet := make(map[string]bool)
	coordinator := ""
	var maxLatency time.Duration
	for p := 0; p < info.Partitions; p++ {
		part := core.PartitionName(table, p)
		shard := d.Catalog.ShardOf(table, p)
		a, err := d.SM.Assignment(svc, shard)
		if err != nil {
			missing = append(missing, part)
			continue
		}
		host := a.Primary()
		h, err := d.Fleet.Host(host)
		if err != nil || !h.Available() {
			missing = append(missing, part)
			continue
		}
		node, err := d.Node(host)
		if err != nil {
			missing = append(missing, part)
			continue
		}
		out := d.sampleCall(host)
		if out.Err != nil {
			missing = append(missing, part)
			continue
		}
		partial, err := node.ExecutePartial(shard, part, q)
		if err != nil {
			missing = append(missing, part)
			continue
		}
		if err := merged.Merge(partial); err != nil {
			return nil, err
		}
		answered++
		hostSet[host] = true
		if coordinator == "" || p == coordinatorPart {
			coordinator = host
		}
		if out.Latency > maxLatency {
			maxLatency = out.Latency
		}
	}
	if answered == 0 {
		return nil, fmt.Errorf("%w: no partition of %s answered in %s", ErrRegionUnavailable, table, region)
	}
	res := merged.Finalize()
	coverage := float64(answered) / float64(info.Partitions)
	// Annotate the embedded engine result too, so callers that only see an
	// *engine.Result (the networked plane's type) get the same degradation
	// metadata as QueryResult carries.
	res.Coverage = coverage
	res.MissingPartitions = missing
	return &QueryResult{
		Result:      res,
		Table:       table,
		Partitions:  info.Partitions,
		Version:     info.Version,
		Region:      region,
		Coordinator: coordinator,
		Fanout:      len(hostSet),
		Latency:     maxLatency,
		Coverage:    coverage,
	}, nil
}

// Repartition evaluates the partition policy for a table and, when the
// decision is Grow or Shrink, performs the re-partition: all rows are
// collected, the catalog layout changes, new shards are placed, and the
// data is re-routed under the new partition count — the expensive
// data-shuffling operation the policy keeps sporadic (§IV-B). It returns
// the policy decision and the new partition count.
func (d *Deployment) Repartition(table string) (core.Decision, int, error) {
	info, err := d.Catalog.Table(table)
	if err != nil {
		return core.Keep, 0, err
	}
	region, err := d.healthyRegionFor(table)
	if err != nil {
		return core.Keep, info.Partitions, err
	}
	size, err := d.TableSizeBytes(table, region)
	if err != nil {
		return core.Keep, info.Partitions, err
	}
	decision, target := d.Catalog.Policy().Evaluate(size, info.Partitions)
	if decision != core.Grow && decision != core.Shrink {
		return decision, info.Partitions, nil
	}

	// Collect every row once from a healthy region.
	var dims [][]uint32
	var metrics [][]float64
	for p := 0; p < info.Partitions; p++ {
		shard := d.Catalog.ShardOf(table, p)
		a, err := d.SM.Assignment(ServiceName(region), shard)
		if err != nil {
			return decision, info.Partitions, err
		}
		node, err := d.Node(a.Primary())
		if err != nil {
			return decision, info.Partitions, err
		}
		st, err := node.store(shard, core.PartitionName(table, p))
		if err != nil {
			return decision, info.Partitions, err
		}
		err = st.Scan(nil, func(dv []uint32, mv []float64) error {
			dims = append(dims, append([]uint32(nil), dv...))
			metrics = append(metrics, append([]float64(nil), mv...))
			return nil
		})
		if err != nil {
			return decision, info.Partitions, err
		}
	}

	oldParts := info.Partitions
	oldShards := core.Shards(d.Catalog.Mapper(), table, oldParts)

	// Flip the catalog to the new layout.
	newInfo, err := d.Catalog.setPartitions(table, target)
	if err != nil {
		return decision, oldParts, err
	}

	// Drop the old partition stores (shards keep other tables' data).
	for p, shard := range oldShards {
		partName := core.PartitionName(table, p)
		for _, reg := range d.Config.Regions {
			svc := ServiceName(reg)
			a, err := d.SM.Assignment(svc, shard)
			if err != nil {
				continue
			}
			if node, err := d.Node(a.Primary()); err == nil {
				node.DropPartition(shard, partName)
			}
			if len(d.Catalog.PartitionsOf(shard)) == 0 {
				_ = d.SM.UnassignShard(svc, shard)
			}
		}
	}

	// Materialize the new layout and reload.
	if err := d.materializeTable(newInfo); err != nil {
		return decision, target, err
	}
	if err := d.Load(table, dims, metrics); err != nil {
		return decision, target, err
	}
	return decision, target, nil
}

// healthyRegionFor returns a region whose copy of the table is fully
// available.
func (d *Deployment) healthyRegionFor(table string) (string, error) {
	info, err := d.Catalog.Table(table)
	if err != nil {
		return "", err
	}
	for _, region := range d.Config.Regions {
		ok := true
		for p := 0; p < info.Partitions; p++ {
			shard := d.Catalog.ShardOf(table, p)
			a, err := d.SM.Assignment(ServiceName(region), shard)
			if err != nil {
				ok = false
				break
			}
			h, err := d.Fleet.Host(a.Primary())
			if err != nil || !h.Available() {
				ok = false
				break
			}
		}
		if ok {
			return region, nil
		}
	}
	return "", fmt.Errorf("%w: no healthy region for %s", cluster.ErrHostDown, table)
}

// DistinctHosts returns the number of distinct hosts holding a table's
// partitions in a region (fan-out after shard collisions).
func (d *Deployment) DistinctHosts(table, region string) (int, error) {
	info, err := d.Catalog.Table(table)
	if err != nil {
		return 0, err
	}
	hosts := make(map[string]bool)
	for p := 0; p < info.Partitions; p++ {
		shard := d.Catalog.ShardOf(table, p)
		a, err := d.SM.Assignment(ServiceName(region), shard)
		if err != nil {
			return 0, err
		}
		hosts[a.Primary()] = true
	}
	return len(hosts), nil
}

// CollisionReport analyzes the deployment's collisions in one region
// (Fig 4a).
func (d *Deployment) CollisionReport(region string) core.CollisionReport {
	svc := ServiceName(region)
	return core.AnalyzeCollisions(d.Catalog.Layouts(), func(shard int64) string {
		a, err := d.SM.Assignment(svc, shard)
		if err != nil {
			return ""
		}
		return a.Primary()
	})
}
