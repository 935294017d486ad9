package cubrick

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"time"

	"cubrick/internal/cluster"
	"cubrick/internal/core"
	"cubrick/internal/engine"
	"cubrick/internal/netexec"
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
	// Fanout is how many distinct hosts answered.
	Fanout int
	// Latency is the largest latency sampled on the wire by a call that
	// answered: the simulated time the slowest host took.
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

// Query executes a grouped aggregation against a table in one region,
// under ctx: resolve every partition's host, execute partials there
// (pushing compute to the data), merge on the coordinator, and finalize.
// Any partition that cannot answer fails the query in this region —
// partial results are never silently dropped (§II-C: Cubrick does not
// trade accuracy). coordinatorPart selects which partition's host acts as
// coordinator (§IV-C); pass 0 when unconcerned.
func (d *Deployment) Query(ctx context.Context, region, table string, q *engine.Query, coordinatorPart int) (*QueryResult, error) {
	return d.query(ctx, region, table, q, coordinatorPart, true)
}

// QueryBestEffort is the Scuba-style alternative the paper contrasts with
// partial sharding (§II-C): instead of failing when a host is down, the
// query ignores unavailable partitions and returns an inexact result with
// its coverage fraction. "This compromise might be acceptable for log
// analysis, monitoring and other workloads where accuracy is not
// fundamental" — Cubrick's BI workloads cannot make that assumption, which
// is why the production system uses partial sharding instead.
func (d *Deployment) QueryBestEffort(ctx context.Context, region, table string, q *engine.Query, coordinatorPart int) (*QueryResult, error) {
	return d.query(ctx, region, table, q, coordinatorPart, false)
}

// query runs one region's query through the region's netexec.Coordinator,
// built once at Open with the zero policy (exact, one attempt, no hedge, so
// no timer), over a cluster.FaultTransport and memTransport: one
// primary-only target per planned partition, so one /partial call per
// host, merged in arrival order, each drawing its fault under the query's
// number. Best effort is chosen in the plan, which leaves out what it
// cannot reach, so a call that fails after planning fails the query in
// this region.
func (d *Deployment) query(ctx context.Context, region, table string, q *engine.Query, coordinatorPart int, exact bool) (*QueryResult, error) {
	info, err := d.Catalog.Table(table)
	if err != nil {
		return nil, err
	}
	p, err := d.plan(region, info, coordinatorPart, exact)
	if err != nil {
		return nil, err
	}
	key := d.queries.Add(1)
	ctx, calls := cluster.WithCalls(ctx, key)
	res, err := d.coords[region].Query(ctx, p.targets, q)
	if errors.Is(err, cluster.ErrRequestFailed) {
		hosts := make([]string, len(p.targets))
		for i, t := range p.targets {
			hosts[i] = strings.TrimPrefix(t.URL, "http://")
		}
		// Name the fault that replays, not the one fail fast saw first.
		if fault := d.faults.FirstFault(key, hosts); fault != nil {
			err = fmt.Errorf("%w: %w", netexec.ErrWorkerFailed, fault)
		}
	}
	if err != nil {
		// Both %w: callers match ErrRegionUnavailable for routing and the
		// underlying cause (e.g. a worker's 429 as admission.ErrQueueFull).
		return nil, fmt.Errorf("%w: %w", ErrRegionUnavailable, err)
	}
	if len(p.missing) > 0 {
		res.Coverage = float64(len(p.targets)) / float64(info.Partitions)
		res.MissingPartitions = p.missing
	}
	fanout, latency := calls.Answered()
	return &QueryResult{Result: res, Table: table, Partitions: info.Partitions, Version: info.Version, Region: region,
		Coordinator: p.coordinator, Fanout: fanout, Latency: latency, Coverage: res.Coverage}, nil
}

// queryPlan is one query's view of a region: what it calls and what it
// leaves out.
type queryPlan struct {
	targets     []netexec.Target // one per called partition, primary only
	missing     []string         // the left-out partitions' names, sorted
	coordinator string           // coordinatorPart's host, or the first called one
}

// plan resolves every partition of a table to its primary host in region
// and checks that host's fleet state; it draws nothing, as faults are
// drawn on the wire. An exact plan fails on the first partition that is
// unresolved or whose host is not serving. A best-effort plan leaves those
// partitions out, and fails only when it leaves out every one.
func (d *Deployment) plan(region string, info TableInfo, coordinatorPart int, exact bool) (queryPlan, error) {
	p := queryPlan{targets: make([]netexec.Target, 0, info.Partitions)}
	for i := 0; i < info.Partitions; i++ {
		name := core.PartitionName(info.Name, i)
		host, err := d.serving(region, d.Catalog.ShardOf(info.Name, i))
		if err != nil {
			if exact {
				return p, fmt.Errorf("%w: %w", ErrRegionUnavailable, err)
			}
			p.missing = append(p.missing, name)
			continue
		}
		p.targets = append(p.targets, netexec.Target{URL: "http://" + host, Partition: name})
		if p.coordinator == "" || i == coordinatorPart {
			p.coordinator = host
		}
	}
	if len(p.targets) == 0 {
		return p, fmt.Errorf("%w: no host of %s answers in %s", ErrRegionUnavailable, info.Name, region)
	}
	slices.Sort(p.missing) // as netexec's gather sorts MissingPartitions
	return p, nil
}

// serving returns a shard's primary host in region, with an error unless
// that host is serving.
func (d *Deployment) serving(region string, shard int64) (string, error) {
	a, err := d.SM.Assignment(ServiceName(region), shard)
	if err != nil {
		return "", err
	}
	h, err := d.Fleet.Host(a.Primary())
	if err == nil && !h.Available() {
		err = fmt.Errorf("%w: %s (%s)", cluster.ErrHostDown, h.Name, h.State())
	}
	return a.Primary(), err
}

// memTransport is the in-process plane's wire: it hands each call to the
// named host's worker handler. It holds no per-query state and draws no
// fault; the query path wraps it in a cluster.FaultTransport.
type memTransport struct{ d *Deployment }

// RoundTrip implements http.RoundTripper.
func (t memTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	defer req.Body.Close()
	n, err := t.d.Node(req.URL.Host)
	if err != nil {
		return nil, err
	}
	rec := httptest.NewRecorder()
	n.handler.ServeHTTP(rec, req)
	return rec.Result(), nil
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
