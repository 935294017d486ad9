package cubrick

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"cubrick/internal/brick"
	"cubrick/internal/cluster"
	"cubrick/internal/core"
	"cubrick/internal/discovery"
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
	// Transport parameterizes latency/fault injection on the query path.
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
	Transport *cluster.Transport

	rnd    *randutil.Source
	nodes  map[string]*Node // host name -> node
	agents map[string]*shardmgr.Agent

	mu sync.Mutex
	// replicatedLog records every row loaded into replicated tables so
	// rejoining hosts can rebuild their replicas.
	replicatedLog map[string][]replicatedRow
	// rndMu serializes use of rnd on the (concurrent) query path.
	rndMu sync.Mutex
}

// sampleFanOut samples the network cost of a scatter-gather; safe for
// concurrent queries.
func (d *Deployment) sampleFanOut(hosts []string) (time.Duration, error) {
	d.rndMu.Lock()
	defer d.rndMu.Unlock()
	return d.Transport.FanOut(hosts, 0, d.rnd)
}

// sampleCall samples one request outcome; safe for concurrent queries.
func (d *Deployment) sampleCall(host string) cluster.Outcome {
	d.rndMu.Lock()
	defer d.rndMu.Unlock()
	return d.Transport.Call(host, d.rnd)
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
	rnd := randutil.New(cfg.Seed)
	fleet := cluster.Build(cluster.BuildConfig{
		Regions:        cfg.Regions,
		RacksPerRegion: cfg.RacksPerRegion,
		HostsPerRack:   cfg.HostsPerRack,
		CapacityBytes:  cfg.HostCapacityBytes,
	})
	store := zk.NewStore(clk)
	dir := discovery.NewDirectory(clk)
	tree := discovery.NewTree(clk, dir, cfg.DiscoveryTree, rnd.Fork().Float64)
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
		Transport: cluster.NewTransport(fleet, cfg.Transport),
		rnd:       rnd,
		nodes:     make(map[string]*Node),
		agents:    make(map[string]*shardmgr.Agent),
	}

	for _, region := range cfg.Regions {
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
			node.SetPeerLookup(d.peerLookup)
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

// Rand exposes the deployment's deterministic random source.
func (d *Deployment) Rand() *randutil.Source { return d.rnd }

func (d *Deployment) peerLookup(host string) (*Node, error) {
	return d.Node(host)
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
			a, err := d.SM.Assignment(ServiceName(region), shard)
			if err != nil {
				continue
			}
			host := a.Primary()
			h, err := d.Fleet.Host(host)
			if err != nil || !h.Available() {
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
// dimension hash and is written to that partition's owner in every region
// (all regions hold full copies, §IV-D).
func (d *Deployment) Load(table string, dims [][]uint32, metrics [][]float64) error {
	if len(dims) != len(metrics) {
		return errors.New("cubrick: dims/metrics length mismatch")
	}
	info, err := d.Catalog.Table(table)
	if err != nil {
		return err
	}
	// Group rows by partition first, then write each partition's batch to
	// its owner in every region with one batched insert — the same routing
	// as before, minus the per-row assignment lookups and store locking.
	byPart := make(map[int][]int)
	for i := range dims {
		p := core.RouteRow(dims[i], info.Partitions)
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
		shard := d.Catalog.ShardOf(table, p)
		partName := core.PartitionName(table, p)
		for _, region := range d.Config.Regions {
			a, err := d.SM.Assignment(ServiceName(region), shard)
			if err != nil {
				return err
			}
			node, err := d.Node(a.Primary())
			if err != nil {
				return err
			}
			if err := node.InsertBatch(shard, partName, bd, bm); err != nil {
				return err
			}
		}
	}
	return nil
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

// PartitionPlacement lists the hosts holding one partition of a table: the
// primary in the query region, plus the hosts owning the same partition in
// the other regions. Since every region holds a full copy of all tables
// (§IV-D), those cross-region owners are exactly the replicas a resilient
// scatter-gather can retry, hedge, or fail over to — this is the placement
// list the networked data plane's Target (primary + replica URLs) is built
// from.
type PartitionPlacement struct {
	Partition string
	Primary   string
	Replicas  []string
}

// ReplicaPlacements returns the per-partition placements of a table as
// seen from one region: primary in that region, replicas drawn from the
// healthy owners in every other region. A down replica host is omitted
// rather than reported — it is failover capacity, not an error.
func (d *Deployment) ReplicaPlacements(table, region string) ([]PartitionPlacement, error) {
	info, err := d.Catalog.Table(table)
	if err != nil {
		return nil, err
	}
	out := make([]PartitionPlacement, info.Partitions)
	for p := 0; p < info.Partitions; p++ {
		shard := d.Catalog.ShardOf(table, p)
		a, err := d.SM.Assignment(ServiceName(region), shard)
		if err != nil {
			return nil, fmt.Errorf("cubrick: partition %s#%d unplaced in %s: %w", table, p, region, err)
		}
		pl := PartitionPlacement{Partition: core.PartitionName(table, p), Primary: a.Primary()}
		for _, other := range d.Config.Regions {
			if other == region {
				continue
			}
			ra, err := d.SM.Assignment(ServiceName(other), shard)
			if err != nil {
				continue
			}
			host := ra.Primary()
			if h, err := d.Fleet.Host(host); err == nil && h.Available() {
				pl.Replicas = append(pl.Replicas, host)
			}
		}
		out[p] = pl
	}
	return out, nil
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
