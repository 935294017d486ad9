package cubrick

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"cubrick/internal/admission"
	"cubrick/internal/brick"
	"cubrick/internal/cluster"
	"cubrick/internal/core"
	"cubrick/internal/engine"
	"cubrick/internal/partition"
	"cubrick/internal/shardmgr"
)

// MetricGeneration selects which load-balancing metric the node exports to
// SM (§IV-F): the three generations Cubrick went through.
type MetricGeneration int

const (
	// Gen1 exports the resident memory footprint per shard. It breaks
	// once adaptive compression makes footprints depend on the *current*
	// host's memory pressure (§IV-F1).
	Gen1 MetricGeneration = iota
	// Gen2 exports the decompressed size per shard — deterministic under
	// migration — with host capacity scaled by the average compression
	// ratio (§IV-F2). This is the production configuration.
	Gen2
	// Gen3 (experimental) exports SSD footprint with eviction; modeled
	// here as decompressed size discounted by the evicted fraction
	// (§IV-F3).
	Gen3
)

// String implements fmt.Stringer.
func (g MetricGeneration) String() string {
	switch g {
	case Gen1:
		return "gen1-resident"
	case Gen2:
		return "gen2-decompressed"
	case Gen3:
		return "gen3-ssd"
	default:
		return fmt.Sprintf("MetricGeneration(%d)", int(g))
	}
}

// ErrNotServing is returned by data-path operations for shards the node
// does not own; the SM client treats it as a stale mapping and retries.
var ErrNotServing = errors.New("cubrick: shard not served here")

// NodeConfig parameterizes one Cubrick server.
type NodeConfig struct {
	// MemoryBudgetBytes is the resident budget enforced by the memory
	// monitor via adaptive compression (§IV-F2). Zero disables.
	MemoryBudgetBytes int64
	// MetricGen selects the exported load-balancing metric.
	MetricGen MetricGeneration
	// AvgCompressionRatio scales capacity under Gen2 (§IV-F2: "capacity
	// ... multiplied by the average compression ratio observed in
	// production").
	AvgCompressionRatio float64
	// HotnessDecay is the per-decay-tick multiplier applied to brick
	// hotness counters.
	HotnessDecay float64
	// Config is the serving configuration of the node's partition set:
	// folding (on in the production default), cache budgets, rollups and
	// admission.
	partition.Config
}

// DefaultNodeConfig returns the production-like configuration.
func DefaultNodeConfig() NodeConfig {
	return NodeConfig{
		MemoryBudgetBytes:   256 << 20,
		MetricGen:           Gen2,
		AvgCompressionRatio: 3,
		HotnessDecay:        0.8,
		Config:              partition.Config{FoldScans: true},
	}
}

// Node is one Cubrick server, the Shard Manager edge of a partition.Set:
// it owns a set of SM shards, each naming one or more table partitions the
// set serves, and implements shardmgr.AppServer over them.
type Node struct {
	host    *cluster.Host
	region  string
	catalog *Catalog
	cfg     NodeConfig

	// peers resolves a hostname to its Node within the same region, for
	// live-migration data copies.
	peers func(host string) (*Node, error)
	// recoverFrom finds a healthy replica of a shard in another region
	// and returns its exported partition blobs, for failover recovery
	// (§IV-D/E). May be nil in single-region deployments.
	recoverFrom func(shard int64) (map[string][]byte, error)

	// parts serves every live partition of every owned shard.
	parts *partition.Set

	mu sync.Mutex
	// shards maps an owned shard id to the names of its partitions in
	// parts (a partition name determines its shard, so names are unique
	// across the node).
	shards map[int64]map[string]bool
	// staged holds data received via PrepareAddShard, keyed by shard and
	// partition name, adopted into parts by AddShard.
	staged map[int64]map[string]*brick.Store
	// forwards maps shards being gracefully dropped to their new owner.
	forwards map[int64]string
	// replicated holds this node's full copies of replicated dimension
	// tables (§II-B), keyed by table name.
	replicated map[string]*brick.Store
	// insertsSinceSweep amortizes memory-monitor runs across ingests.
	insertsSinceSweep atomic.Int64
}

// NewNode constructs a Cubrick server for a host in a region.
func NewNode(host *cluster.Host, region string, catalog *Catalog, cfg NodeConfig) *Node {
	return &Node{
		host:     host,
		region:   region,
		catalog:  catalog,
		cfg:      cfg,
		parts:    partition.New(cfg.Config),
		shards:   make(map[int64]map[string]bool),
		staged:   make(map[int64]map[string]*brick.Store),
		forwards: make(map[int64]string),
	}
}

// Parts returns the partitions the node serves.
func (n *Node) Parts() *partition.Set { return n.parts }

// Host returns the underlying fleet host.
func (n *Node) Host() *cluster.Host { return n.host }

// Region returns the node's region.
func (n *Node) Region() string { return n.region }

// SetPeerLookup wires the intra-region peer resolver (deployment calls
// this once all nodes exist).
func (n *Node) SetPeerLookup(fn func(host string) (*Node, error)) { n.peers = fn }

// SetRecoverySource wires the cross-region replica lookup used by
// failovers.
func (n *Node) SetRecoverySource(fn func(shard int64) (map[string][]byte, error)) {
	n.recoverFrom = fn
}

// hostShardSet returns the set of shards this node currently owns.
func (n *Node) hostShardSet() map[int64]bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make(map[int64]bool, len(n.shards))
	for sh := range n.shards {
		out[sh] = true
	}
	return out
}

// AddShard implements shardmgr.AppServer. Taking a shard means creating
// (or promoting staged copies of) every table partition the catalog maps
// to it. If doing so would create a shard collision — this host already
// stores a different shard containing a partition of one of the same
// tables — the node throws a non-retryable error so SM retargets the
// migration (§IV-A).
func (n *Node) AddShard(shard int64, _ shardmgr.Role) error {
	refs := n.catalog.PartitionsOf(shard)

	// Collision check against the tables involved.
	layouts := make([]core.TableLayout, 0, len(refs))
	seen := make(map[string]bool)
	for _, ref := range refs {
		if seen[ref.Table] {
			continue
		}
		seen[ref.Table] = true
		info, err := n.catalog.Table(ref.Table)
		if err == nil {
			layouts = append(layouts, core.Layout(n.catalog.Mapper(), info.Name, info.Partitions))
		}
	}
	if core.WouldCollide(layouts, n.hostShardSet(), shard) {
		return fmt.Errorf("%w: shard %d would collide on %s", shardmgr.ErrNonRetryable, shard, n.host.Name)
	}

	n.mu.Lock()
	defer n.mu.Unlock()
	if n.shards[shard] == nil {
		n.shards[shard] = make(map[string]bool)
	}
	staged := n.staged[shard]
	delete(n.staged, shard)

	// Failover path: no staged data means we may need to recover from a
	// healthy region (§IV-E: "on a failover, data and metadata are copied
	// from a healthy server in a different region").
	var recovered map[string][]byte
	if staged == nil && n.recoverFrom != nil {
		if blobs, err := n.recoverFrom(shard); err == nil {
			recovered = blobs
		}
	}

	for _, ref := range refs {
		name := ref.Name()
		if n.shards[shard][name] {
			continue
		}
		st, ok := staged[name]
		if !ok {
			var err error
			if st, err = n.parts.NewStore(ref.Schema); err != nil {
				return err
			}
			if blob, ok := recovered[name]; ok {
				if err := st.Import(blob); err != nil {
					return err
				}
			}
		}
		if err := n.parts.Adopt(name, st); err != nil {
			return err
		}
		n.shards[shard][name] = true
	}
	delete(n.forwards, shard)
	return nil
}

// Reset drops all shard data and metadata. A server that was declared dead
// (its shards failed over elsewhere) must present itself empty when it
// rejoins the fleet after repair; SM will assign shards to it over time.
func (n *Node) Reset() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.shards = make(map[int64]map[string]bool)
	n.staged = make(map[int64]map[string]*brick.Store)
	n.forwards = make(map[int64]string)
	n.replicated = make(map[string]*brick.Store)
	n.parts.Reset()
}

// DropShard implements shardmgr.AppServer: all data and metadata for the
// shard are deleted. (Production Cubrick also waits for the request rate
// to reach zero; the forwarding map covers requests that raced the drop.)
func (n *Node) DropShard(shard int64) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	for name := range n.shards[shard] {
		n.parts.Drop(name)
	}
	delete(n.shards, shard)
	delete(n.staged, shard)
	delete(n.forwards, shard)
	return nil
}

// PrepareAddShard implements the receiving half of graceful migration
// (§IV-E): copy all data and metadata for the shard from the current
// owner, so this server can answer forwarded requests immediately.
func (n *Node) PrepareAddShard(shard int64, from string) error {
	refs := n.catalog.PartitionsOf(shard)
	layouts := make([]core.TableLayout, 0, len(refs))
	seen := make(map[string]bool)
	for _, ref := range refs {
		if !seen[ref.Table] {
			seen[ref.Table] = true
			if info, err := n.catalog.Table(ref.Table); err == nil {
				layouts = append(layouts, core.Layout(n.catalog.Mapper(), info.Name, info.Partitions))
			}
		}
	}
	if core.WouldCollide(layouts, n.hostShardSet(), shard) {
		return fmt.Errorf("%w: shard %d would collide on %s", shardmgr.ErrNonRetryable, shard, n.host.Name)
	}
	if n.peers == nil {
		return errors.New("cubrick: no peer lookup wired")
	}
	src, err := n.peers(from)
	if err != nil {
		return err
	}
	blobs, err := src.ExportShard(shard)
	if err != nil {
		return err
	}
	staged := make(map[string]*brick.Store, len(refs))
	for _, ref := range refs {
		st, err := n.parts.NewStore(ref.Schema)
		if err != nil {
			return err
		}
		if blob, ok := blobs[ref.Name()]; ok {
			if err := st.Import(blob); err != nil {
				return err
			}
		}
		staged[ref.Name()] = st
	}
	n.mu.Lock()
	n.staged[shard] = staged
	n.mu.Unlock()
	return nil
}

// PrepareDropShard implements the releasing half of graceful migration:
// requests for the shard are forwarded to the new owner from now on.
func (n *Node) PrepareDropShard(shard int64, to string) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.shards[shard]; !ok {
		return fmt.Errorf("%w: %d", ErrNotServing, shard)
	}
	n.forwards[shard] = to
	return nil
}

// ForwardTarget returns the migration forward target for a shard, if any.
func (n *Node) ForwardTarget(shard int64) (string, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	t, ok := n.forwards[shard]
	return t, ok
}

// ExportShard serializes every partition store in a shard (the data-copy
// RPC of live migrations and failover recovery).
func (n *Node) ExportShard(shard int64) (map[string][]byte, error) {
	n.mu.Lock()
	names, ok := n.shards[shard]
	stores := make(map[string]*brick.Store, len(names))
	for name := range names {
		stores[name], _ = n.parts.Store(name)
	}
	n.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrNotServing, shard)
	}
	out := make(map[string][]byte, len(stores))
	for name, st := range stores {
		blob, err := st.Export()
		if err != nil {
			return nil, err
		}
		out[name] = blob
	}
	return out, nil
}

// owns reports nil when the node serves the partition as part of the
// shard, ErrNotServing otherwise.
func (n *Node) owns(shard int64, partName string) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	names, ok := n.shards[shard]
	if !ok {
		return fmt.Errorf("%w: shard %d on %s", ErrNotServing, shard, n.host.Name)
	}
	if !names[partName] {
		return fmt.Errorf("%w: %s in shard %d on %s", ErrNotServing, partName, shard, n.host.Name)
	}
	return nil
}

// store returns the live store of one partition of a shard.
func (n *Node) store(shard int64, partName string) (*brick.Store, error) {
	if err := n.owns(shard, partName); err != nil {
		return nil, err
	}
	st, ok := n.parts.Store(partName)
	if !ok { // dropped since the ownership check
		return nil, fmt.Errorf("%w: %s in shard %d on %s", ErrNotServing, partName, shard, n.host.Name)
	}
	return st, nil
}

// EnsurePartition creates an empty store for a partition of a shard the
// node already owns — used when a table is created after its shard was
// assigned (cross-table partition collision).
func (n *Node) EnsurePartition(shard int64, ref PartitionRef) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	names, ok := n.shards[shard]
	if !ok {
		return fmt.Errorf("%w: shard %d on %s", ErrNotServing, shard, n.host.Name)
	}
	if names[ref.Name()] {
		return nil
	}
	if err := n.parts.Add(ref.Name(), ref.Schema); err != nil {
		return err
	}
	names[ref.Name()] = true
	return nil
}

// DropPartition removes one partition's store (table drop / re-partition).
func (n *Node) DropPartition(shard int64, partName string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if names := n.shards[shard]; names[partName] {
		delete(names, partName)
		n.parts.Drop(partName)
	}
}

// Insert adds a row to a partition.
func (n *Node) Insert(shard int64, partName string, dims []uint32, metrics []float64) error {
	st, err := n.store(shard, partName)
	if err != nil {
		return err
	}
	if err := st.Insert(dims, metrics); err != nil {
		return err
	}
	// The memory monitor is a periodic procedure, not a per-write hook
	// (§IV-F2 "a memory monitor procedure is triggered"); amortize it.
	if n.insertsSinceSweep.Add(1)%64 == 0 {
		n.enforceBudget()
	}
	return nil
}

// InsertBatch adds a row-major batch to a partition in one pass (single
// store lock, one brick append per touched brick). The memory monitor runs
// at the same amortized cadence as per-row Insert: once per 64 rows
// crossed.
func (n *Node) InsertBatch(shard int64, partName string, dims [][]uint32, metrics [][]float64) error {
	if len(dims) == 0 {
		return nil
	}
	st, err := n.store(shard, partName)
	if err != nil {
		return err
	}
	if err := st.InsertBatchRows(dims, metrics); err != nil {
		return err
	}
	after := n.insertsSinceSweep.Add(int64(len(dims)))
	if after/64 != (after-int64(len(dims)))/64 {
		n.enforceBudget()
	}
	return nil
}

// ExecutePartial runs a query over one partition and returns the partial
// result (the per-worker step of scatter-gather). Execution is
// brick-parallel: the partition's bricks are morsels consumed by a worker
// pool sized by GOMAXPROCS.
func (n *Node) ExecutePartial(shard int64, partName string, q *engine.Query) (*engine.Partial, error) {
	return n.ExecutePartialCtx(context.Background(), shard, partName, q)
}

// ExecutePartialCtx is ExecutePartial with a context: once the node is
// known to own the partition, the partition set admits the query (tenant
// and priority drawn from admission.MetaFrom(ctx)) and answers it from the
// rollup table or a brick pass.
func (n *Node) ExecutePartialCtx(ctx context.Context, shard int64, partName string, q *engine.Query) (*engine.Partial, error) {
	if err := n.owns(shard, partName); err != nil {
		return nil, err
	}
	meta := admission.MetaFrom(ctx)
	p, _, _, err := n.parts.Partial(ctx, partName, q, partition.Opts{Tenant: meta.Tenant, Priority: meta.Priority})
	if errors.Is(err, partition.ErrNoPartition) { // dropped since the ownership check
		err = fmt.Errorf("%w: %w", ErrNotServing, err)
	}
	return p, err
}

// enforceBudget runs the memory monitor when a budget is configured:
// gen 1/2 compress cold bricks (§IV-F2); gen 3 additionally evicts the
// coldest to SSD (§IV-F3).
func (n *Node) enforceBudget() {
	if n.cfg.MemoryBudgetBytes <= 0 {
		return
	}
	share := n.cfg.MemoryBudgetBytes / int64(max(1, n.parts.Len()))
	for _, st := range n.parts.Stores() {
		// Per-store budget share keeps the implementation simple while
		// preserving the behaviour: cold bricks compress first.
		if n.cfg.MetricGen == Gen3 {
			_, _, _, _ = st.EnsureTiered(share, 0.8)
		} else {
			_, _, _ = st.EnsureBudget(share, 0.8)
		}
	}
}

// SetMetricGen switches the exported load-balancing metric generation at
// runtime (operators did exactly this between Cubrick generations, §IV-F).
func (n *Node) SetMetricGen(g MetricGeneration) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.cfg.MetricGen = g
}

// CompressAll forces every brick on the node into the compressed tier
// (tests and ablations use it to emulate maximum memory pressure).
func (n *Node) CompressAll() {
	for _, st := range n.parts.Stores() {
		_, _, _ = st.EnsureBudget(0, 0.5)
	}
}

// DecompressAll restores every brick to the uncompressed tier.
func (n *Node) DecompressAll() {
	for _, st := range n.parts.Stores() {
		_, _, _ = st.EnsureBudget(1<<62, 1.0)
	}
}

// SSDReads returns the node's total SSD read count — the IOPS signal
// §IV-F3 investigates as an additional load-balancing metric.
func (n *Node) SSDReads() int64 {
	var sum int64
	for _, st := range n.parts.Stores() {
		sum += st.SSDReads()
	}
	return sum
}

// WorkingSetBytes returns the decompressed size of this node's bricks
// hotter than the threshold.
func (n *Node) WorkingSetBytes(hotThreshold float64) int64 {
	var sum int64
	for _, st := range n.parts.Stores() {
		sum += st.WorkingSetBytes(hotThreshold)
	}
	return sum
}

// DecayHotness cools every brick on the node (periodic tick).
func (n *Node) DecayHotness() { n.parts.DecayHotness(n.cfg.HotnessDecay) }

// HeatSnapshot returns all bricks' heat samples (Fig 4e input).
func (n *Node) HeatSnapshot() []brick.BrickHeat {
	var out []brick.BrickHeat
	for _, st := range n.parts.Stores() {
		out = append(out, st.HotnessSnapshot()...)
	}
	return out
}

// ShardLoads implements shardmgr.AppServer, exporting the per-shard metric
// of the configured generation (§IV-F).
func (n *Node) ShardLoads() map[int64]float64 {
	n.mu.Lock()
	type entry struct {
		shard  int64
		stores []*brick.Store
	}
	entries := make([]entry, 0, len(n.shards))
	for sh, names := range n.shards {
		e := entry{shard: sh}
		for name := range names {
			if st, ok := n.parts.Store(name); ok {
				e.stores = append(e.stores, st)
			}
		}
		entries = append(entries, e)
	}
	n.mu.Unlock()

	out := make(map[int64]float64, len(entries))
	for _, e := range entries {
		var v float64
		for _, st := range e.stores {
			switch n.cfg.MetricGen {
			case Gen1:
				v += float64(st.MemoryBytes())
			case Gen2:
				v += float64(st.UncompressedBytes())
			case Gen3:
				// SSD footprint plus resident memory: under full
				// eviction a shard's memory can be ~0 while its SSD
				// footprint carries the balancing signal (§IV-F3).
				v += float64(st.SSDBytes() + st.MemoryBytes())
			}
		}
		out[e.shard] = v
	}
	return out
}

// Capacity implements shardmgr.AppServer (§IV-F).
func (n *Node) Capacity() float64 {
	c := float64(n.host.CapacityBytes)
	switch n.cfg.MetricGen {
	case Gen2:
		return c * n.cfg.AvgCompressionRatio
	case Gen3:
		// SSD capacity modeled as a large multiple of memory.
		return c * 10
	default:
		return c
	}
}

// MemoryBytes returns the node's resident footprint across all stores.
func (n *Node) MemoryBytes() int64 {
	var sum int64
	for _, st := range n.parts.Stores() {
		sum += st.MemoryBytes()
	}
	return sum
}

// Shards returns the shard ids this node currently serves, sorted.
func (n *Node) Shards() []int64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]int64, 0, len(n.shards))
	for sh := range n.shards {
		out = append(out, sh)
	}
	sortInt64s(out)
	return out
}

func sortInt64s(v []int64) {
	for i := 1; i < len(v); i++ {
		for j := i; j > 0 && v[j-1] > v[j]; j-- {
			v[j-1], v[j] = v[j], v[j-1]
		}
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
