package cubrick

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cubrick/internal/brick"
	"cubrick/internal/cluster"
	"cubrick/internal/core"
	"cubrick/internal/discovery"
	"cubrick/internal/netexec"
	"cubrick/internal/randutil"
	"cubrick/internal/shardmgr"
	"cubrick/internal/simclock"
	"cubrick/internal/workload"
	"cubrick/internal/zk"
)

// DeploymentConfig describes a full multi-region Cubrick deployment.
type DeploymentConfig struct {
	// Regions lists the deployment regions; production uses three, each
	// holding a full copy of all tables (§IV-D).
	Regions []string
	// RacksPerRegion and HostsPerRack shape each region's fleet.
	RacksPerRegion int
	HostsPerRack   int
	// HostCapacityBytes is each host's memory capacity.
	HostCapacityBytes int64
	// MaxShards is SM's flat shard key space size (100k–1M in
	// production, §IV-A).
	MaxShards int64
	// Node configures the Cubrick servers.
	Node NodeConfig
	// Policy is the partitions-per-table policy (§IV-B).
	Policy core.PartitionPolicy
	// HeartbeatTTL, HeartbeatInterval drive failure detection.
	HeartbeatTTL      time.Duration
	HeartbeatInterval time.Duration
	// PropagationWait is the graceful-migration discovery wait (§IV-E).
	PropagationWait time.Duration
	// MaxMigrationsPerRun throttles load balancing (§III-A3).
	MaxMigrationsPerRun int
	// ImbalanceRatio is the balancer trigger threshold.
	ImbalanceRatio float64
	// Transport parameterizes the faults and latencies queries draw.
	Transport cluster.TransportConfig
	// DiscoveryTree shapes the SMC propagation tree (Fig 4c).
	DiscoveryTree discovery.TreeConfig
	// Seed makes the deployment deterministic.
	Seed int64
}

// DefaultDeploymentConfig returns a small but fully wired three-region
// deployment suitable for tests and examples.
func DefaultDeploymentConfig() DeploymentConfig {
	return DeploymentConfig{
		Regions:             []string{"east", "west", "central"},
		RacksPerRegion:      2,
		HostsPerRack:        4,
		HostCapacityBytes:   8 << 30,
		MaxShards:           100000,
		Node:                DefaultNodeConfig(),
		Policy:              core.DefaultPartitionPolicy(),
		HeartbeatTTL:        30 * time.Second,
		HeartbeatInterval:   5 * time.Second,
		PropagationWait:     15 * time.Second,
		MaxMigrationsPerRun: 10,
		ImbalanceRatio:      0.25,
		Transport:           cluster.DefaultTransportConfig(),
		DiscoveryTree:       discovery.DefaultTreeConfig(),
		Seed:                1,
	}
}

// Deployment is a fully wired multi-region Cubrick installation over a
// simulated fleet: fleet + zk + discovery + SM + Cubrick nodes.
type Deployment struct {
	Config    DeploymentConfig
	Clock     *simclock.SimClock
	Fleet     *cluster.Fleet
	ZK        *zk.Store
	Directory *discovery.Directory
	Tree      *discovery.Tree
	SM        *shardmgr.Server
	Catalog   *Catalog

	nodes  map[string]*Node // host name -> node
	agents map[string]*shardmgr.Agent
	// coords holds each region's one query coordinator, built at Open:
	// partition names repeat across regions, but each region's copies
	// have their own ingest epochs, so regions share no KnownEpoch view.
	// Their client draws faults on the wire through faults, keyed by
	// queries; loads use wire, which draws none.
	coords  map[string]*netexec.Coordinator
	faults  *cluster.FaultTransport
	queries atomic.Uint64
	wire    *http.Client

	mu sync.Mutex
	// replicatedLog records every row loaded into replicated tables so
	// rejoining hosts can rebuild their replicas.
	replicatedLog map[string]replicatedRows
}

// ServiceName returns the SM service name for a region. Cubrick deploys as
// independent primary-only services, one per region (§IV-D).
func ServiceName(region string) string { return "cubrick-" + region }

// Open builds and starts a deployment at the given simulated epoch.
func Open(cfg DeploymentConfig, epoch time.Time) (*Deployment, error) {
	if len(cfg.Regions) == 0 {
		return nil, errors.New("cubrick: deployment needs at least one region")
	}
	clk := simclock.NewSim(epoch)
	fleet := cluster.Build(cluster.BuildConfig{
		Regions:        cfg.Regions,
		RacksPerRegion: cfg.RacksPerRegion,
		HostsPerRack:   cfg.HostsPerRack,
		CapacityBytes:  cfg.HostCapacityBytes,
	})
	store := zk.NewStore(clk)
	dir := discovery.NewDirectory(clk)
	tree := discovery.NewTree(clk, dir, cfg.DiscoveryTree, randutil.New(cfg.Seed).Fork().Float64)
	sm := shardmgr.NewServer(clk, store, dir, fleet)
	catalog := NewCatalog(core.MonotonicMapper{MaxShards: cfg.MaxShards}, cfg.Policy)

	d := &Deployment{
		Config:    cfg,
		Clock:     clk,
		Fleet:     fleet,
		ZK:        store,
		Directory: dir,
		Tree:      tree,
		SM:        sm,
		Catalog:   catalog,
		nodes:     make(map[string]*Node),
		agents:    make(map[string]*shardmgr.Agent),
		coords:    make(map[string]*netexec.Coordinator, len(cfg.Regions)),
	}

	d.wire = &http.Client{Transport: memTransport{d}}
	d.faults = cluster.NewFaultTransport(memTransport{d}, cfg.Transport, cfg.Seed)
	client := &http.Client{Transport: d.faults}
	for _, region := range cfg.Regions {
		d.coords[region] = &netexec.Coordinator{Client: client}
		svc := shardmgr.ServiceConfig{
			Name:                ServiceName(region),
			MaxShards:           cfg.MaxShards,
			Model:               shardmgr.PrimaryOnly,
			Spread:              shardmgr.SpreadHost,
			MaxMigrationsPerRun: cfg.MaxMigrationsPerRun,
			ImbalanceRatio:      cfg.ImbalanceRatio,
			HeartbeatTTL:        cfg.HeartbeatTTL,
			PropagationWait:     cfg.PropagationWait,
		}
		if err := sm.RegisterService(svc); err != nil {
			return nil, err
		}
		for _, h := range fleet.Region(region) {
			node := NewNode(h, region, catalog, cfg.Node)
			node.SetPeerLookup(d.Node)
			node.SetRecoverySource(d.recoverySourceFor(node))
			d.nodes[h.Name] = node
			agent := newAgentFor(d, region, h, node)
			if err := agent.Start(); err != nil {
				return nil, err
			}
			d.agents[h.Name] = agent
		}
	}
	return d, nil
}

// newAgentFor builds the SM agent of one host (used at Open and AddHost).
func newAgentFor(d *Deployment, region string, h *cluster.Host, node *Node) *shardmgr.Agent {
	return shardmgr.NewAgent(d.SM, ServiceName(region), h, node, d.Clock, d.Config.HeartbeatInterval)
}

// Node returns the Cubrick server on a host.
func (d *Deployment) Node(host string) (*Node, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	n, ok := d.nodes[host]
	if !ok {
		return nil, fmt.Errorf("cubrick: no node on host %s", host)
	}
	return n, nil
}

// Agent returns the SM agent of a host.
func (d *Deployment) Agent(host string) (*shardmgr.Agent, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	a, ok := d.agents[host]
	if !ok {
		return nil, fmt.Errorf("cubrick: no agent on host %s", host)
	}
	return a, nil
}

// Nodes returns all nodes sorted by host name.
func (d *Deployment) Nodes() []*Node {
	d.mu.Lock()
	defer d.mu.Unlock()
	names := make([]string, 0, len(d.nodes))
	for n := range d.nodes {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]*Node, len(names))
	for i, n := range names {
		out[i] = d.nodes[n]
	}
	return out
}

// recoverySourceFor returns the failover data source of a node: a healthy
// owner of the shard in any *other* region (§IV-D: failovers download a
// copy of the failed shard from a healthy region).
func (d *Deployment) recoverySourceFor(n *Node) func(shard int64) (map[string][]byte, error) {
	return func(shard int64) (map[string][]byte, error) {
		for _, region := range d.Config.Regions {
			if region == n.Region() {
				continue
			}
			host, err := d.serving(region, shard)
			if err != nil {
				continue
			}
			src, err := d.Node(host)
			if err != nil {
				continue
			}
			blobs, err := src.ExportShard(shard)
			if err != nil {
				continue
			}
			return blobs, nil
		}
		return nil, fmt.Errorf("cubrick: no healthy replica of shard %d in other regions", shard)
	}
}

// CreateTable registers a table and materializes its partitions in every
// region. If a partition's shard is already assigned (cross-table
// partition collision), the owning node simply gains the new partition;
// otherwise SM places the shard.
func (d *Deployment) CreateTable(name string, schema brick.Schema) (TableInfo, error) {
	info, err := d.Catalog.CreateTable(name, schema)
	if err != nil {
		return TableInfo{}, err
	}
	if err := d.materializeTable(info); err != nil {
		return TableInfo{}, err
	}
	return info, nil
}

func (d *Deployment) materializeTable(info TableInfo) error {
	for p := 0; p < info.Partitions; p++ {
		shard := d.Catalog.ShardOf(info.Name, p)
		ref := PartitionRef{Table: info.Name, Partition: p, Schema: info.Schema}
		for _, region := range d.Config.Regions {
			svc := ServiceName(region)
			if a, err := d.SM.Assignment(svc, shard); err == nil {
				// Shard already placed: add the partition store there.
				node, err := d.Node(a.Primary())
				if err != nil {
					return err
				}
				if err := node.EnsurePartition(shard, ref); err != nil {
					return err
				}
				continue
			}
			if _, err := d.SM.AssignShard(svc, shard); err != nil {
				return fmt.Errorf("cubrick: placing shard %d in %s: %w", shard, region, err)
			}
		}
	}
	return nil
}

// DropTable removes a table everywhere: partition stores are dropped, and
// shards that no longer contain any partition are unassigned.
func (d *Deployment) DropTable(name string) error {
	info, err := d.Catalog.Table(name)
	if err != nil {
		return err
	}
	if info.Replicated {
		if err := d.Catalog.DropTable(name); err != nil {
			return err
		}
		for _, n := range d.Nodes() {
			n.DropReplicated(name)
		}
		d.mu.Lock()
		delete(d.replicatedLog, name)
		d.mu.Unlock()
		return nil
	}
	shards, err := d.Catalog.ShardsOf(name)
	if err != nil {
		return err
	}
	if err := d.Catalog.DropTable(name); err != nil {
		return err
	}
	for p, shard := range shards {
		partName := core.PartitionName(info.Name, p)
		for _, region := range d.Config.Regions {
			svc := ServiceName(region)
			a, err := d.SM.Assignment(svc, shard)
			if err != nil {
				continue
			}
			if len(d.Catalog.PartitionsOf(shard)) == 0 {
				_ = d.SM.UnassignShard(svc, shard)
				continue
			}
			if node, err := d.Node(a.Primary()); err == nil {
				node.DropPartition(shard, partName)
			}
		}
	}
	return nil
}

// Load ingests rows into a table: each row routes to a partition by
// dimension hash (core.RouteBatch), and each partition's batch goes to its
// owner in every region (all regions hold full copies, §IV-D) through the
// owner's worker, as on the networked plane, one partition after another.
// A fenced partition's batch fails with a retryable error and is not
// retried here. Nothing is undone, so the error names the regions that
// took the failed batch and the partitions that every region took.
func (d *Deployment) Load(table string, dims [][]uint32, metrics [][]float64) error {
	if len(dims) != len(metrics) {
		return errors.New("cubrick: dims/metrics length mismatch")
	}
	info, err := d.Catalog.Table(table)
	if err != nil {
		return err
	}
	var loaded []string // partitions every region took
	return core.RouteBatch(dims, metrics, info.Partitions, func(p int, bd [][]uint32, bm [][]float64) error {
		shard := d.Catalog.ShardOf(table, p)
		partName := core.PartitionName(table, p)
		for i, region := range d.Config.Regions {
			a, err := d.SM.Assignment(ServiceName(region), shard)
			var node *Node
			if err == nil {
				node, err = d.Node(a.Primary())
			}
			if err == nil {
				err = d.ship(node, partName, bd, bm)
			}
			if err != nil {
				return fmt.Errorf("cubrick: load stopped at %s, taken in %v, not in %s; partitions before it, taken in every region: %v: %w",
					partName, d.Config.Regions[:i], region, loaded, err)
			}
			node.ingested(len(bd))
		}
		loaded = append(loaded, partName)
		return nil
	})
}

// ship posts one batch to a node's worker (POST /loadbin) over
// memTransport, off the query path's fault model: the worker's fence and
// its all-or-nothing batch check see every in-process write.
func (d *Deployment) ship(n *Node, part string, dims [][]uint32, metrics [][]float64) error {
	cl := netexec.Client{BaseURL: "http://" + n.Host().Name, HTTP: d.wire}
	_, err := cl.Load(context.Background(), part, dims, metrics)
	return err
}

// LoadGenerated ingests n synthetic rows from a workload generator.
func (d *Deployment) LoadGenerated(table string, n int, gen *workload.RowGenerator) error {
	dims := make([][]uint32, n)
	metrics := make([][]float64, n)
	for i := 0; i < n; i++ {
		dims[i], metrics[i] = gen.Next()
	}
	return d.Load(table, dims, metrics)
}

// Settle advances simulated time enough for discovery propagation and
// heartbeats to catch up — the "wait a few seconds" production operators
// get for free from wall-clock time.
func (d *Deployment) Settle() {
	d.Clock.Advance(30 * time.Second)
	d.SM.Sweep()
}

// TableSizeBytes returns a table's total decompressed size in one region.
func (d *Deployment) TableSizeBytes(table, region string) (int64, error) {
	info, err := d.Catalog.Table(table)
	if err != nil {
		return 0, err
	}
	var total int64
	for p := 0; p < info.Partitions; p++ {
		shard := d.Catalog.ShardOf(table, p)
		a, err := d.SM.Assignment(ServiceName(region), shard)
		if err != nil {
			return 0, err
		}
		node, err := d.Node(a.Primary())
		if err != nil {
			return 0, err
		}
		st, err := node.store(shard, core.PartitionName(table, p))
		if err != nil {
			return 0, err
		}
		total += st.UncompressedBytes()
	}
	return total, nil
}
