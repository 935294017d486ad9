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
	"cubrick/internal/rollup"
	"cubrick/internal/scancache"
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
	// FoldScans lets concurrent queries with equal fold keys share one
	// brick pass of the store's scan scheduler. Off in the zero value
	// (every query runs an unshared pass); on in the production default.
	FoldScans bool
	// BrickCacheBytes budgets the node's per-brick partial cache (fold
	// key + brick ingest epoch -> finished per-task accumulator), shared
	// by every partition store on the node. Zero disables.
	BrickCacheBytes int64
	// DecodedCacheBytes budgets the decoded-column cache keeping hot
	// compressed bricks' decoded columns resident. Zero disables.
	DecodedCacheBytes int64
	// RollupTimeDim names the time dimension incremental rollup tables
	// bucket on; empty disables rollups. Partitions whose schema has the
	// dimension maintain a rollup table that catches up on every ingest
	// and serves eligible queries without a raw scan.
	RollupTimeDim string
	// RollupBucket is the rollup bucket width in time-dimension units;
	// 0 means 1.
	RollupBucket uint32
	// RollupDims lists the dimensions rollup groups carry; empty means
	// every non-time dimension of the partition's schema.
	RollupDims []string
	// RollupDistinct lists dimensions maintained as HLL sketches for
	// COUNT(DISTINCT) serving.
	RollupDistinct []string
}

// DefaultNodeConfig returns the production-like configuration.
func DefaultNodeConfig() NodeConfig {
	return NodeConfig{
		MemoryBudgetBytes:   256 << 20,
		MetricGen:           Gen2,
		AvgCompressionRatio: 3,
		HotnessDecay:        0.8,
		FoldScans:           true,
	}
}

// Node is one Cubrick server: it owns a set of SM shards, each containing
// one or more table-partition stores, and executes partial queries over
// them. Node implements shardmgr.AppServer.
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

	mu sync.Mutex
	// shards maps shard id -> partition name -> store.
	shards map[int64]map[string]*brick.Store
	// staged holds data received via PrepareAddShard, keyed like shards,
	// promoted to live by AddShard.
	staged map[int64]map[string]*brick.Store
	// forwards maps shards being gracefully dropped to their new owner.
	forwards map[int64]string
	// replicated holds this node's full copies of replicated dimension
	// tables (§II-B), keyed by table name.
	replicated map[string]*brick.Store
	// insertsSinceSweep amortizes memory-monitor runs across ingests.
	insertsSinceSweep atomic.Int64

	// admit gates partial execution when set (nil admits everything).
	admit *admission.Controller
	// scheds lazily holds one scan scheduler per store; every partial
	// execution is one of its brick passes.
	schedMu sync.Mutex
	scheds  map[*brick.Store]*engine.Scheduler

	// cacheMu guards the node-wide brick and decoded-column caches,
	// lazily built from the configured byte budgets (nil when zero).
	cacheMu      sync.Mutex
	cachesBuilt  bool
	brickCache   *engine.BrickCache
	decodedCache *brick.DecodedCache

	// rollupMu guards rollups: per-store incremental rollup tables, built
	// in newStore when RollupTimeDim is configured and removed when the
	// owning shard or partition is dropped.
	rollupMu sync.Mutex
	rollups  map[*brick.Store]*rollup.Table
}

// caches returns the node-wide cache levels, building them on first use.
func (n *Node) caches() (*engine.BrickCache, *brick.DecodedCache) {
	n.cacheMu.Lock()
	defer n.cacheMu.Unlock()
	if !n.cachesBuilt {
		n.brickCache = engine.NewBrickCache(n.cfg.BrickCacheBytes)
		n.decodedCache = brick.NewDecodedCache(n.cfg.DecodedCacheBytes)
		n.cachesBuilt = true
	}
	return n.brickCache, n.decodedCache
}

// SetCacheBudgets rebuilds the node's cache levels with new byte budgets
// (zero disables a level), attaches the decoded-column cache to every
// existing store, and drops the scan schedulers so future queries pick up
// the new brick cache. Existing cached entries are discarded. Intended for
// startup-time configuration, like SetFoldScans.
func (n *Node) SetCacheBudgets(brickBytes, decodedBytes int64) {
	n.cacheMu.Lock()
	n.brickCache = engine.NewBrickCache(brickBytes)
	n.decodedCache = brick.NewDecodedCache(decodedBytes)
	n.cachesBuilt = true
	dc := n.decodedCache
	n.cacheMu.Unlock()

	n.mu.Lock()
	for _, parts := range n.shards {
		for _, st := range parts {
			st.SetDecodedCache(dc)
		}
	}
	for _, parts := range n.staged {
		for _, st := range parts {
			st.SetDecodedCache(dc)
		}
	}
	for _, st := range n.replicated {
		st.SetDecodedCache(dc)
	}
	n.mu.Unlock()

	// In-flight passes keep their scheduler; new queries build fresh ones
	// configured with the new brick cache.
	n.schedMu.Lock()
	n.scheds = make(map[*brick.Store]*engine.Scheduler)
	n.schedMu.Unlock()
}

// CacheStats reports the node's brick and decoded-column cache counters.
func (n *Node) CacheStats() (brickCache, decodedCache scancache.Stats) {
	bc, dc := n.caches()
	return bc.Stats(), dc.Stats()
}

// newStore creates a partition store with the node's decoded-column cache
// attached (keys carry a process-unique brick uid, so stores sharing the
// cache cannot collide).
func (n *Node) newStore(schema brick.Schema) (*brick.Store, error) {
	st, err := brick.NewStore(schema)
	if err != nil {
		return nil, err
	}
	if _, dc := n.caches(); dc != nil {
		st.SetDecodedCache(dc)
	}
	n.attachRollup(st)
	return st, nil
}

// attachRollup builds the store's incremental rollup table when the node
// is configured for rollups and the schema has the time dimension, and
// hooks the ingest observer so the table stays caught up. Staged stores
// (migration receives) get tables too: the Import they absorb bumps the
// store generation, so the table rebuilds itself on first serve.
func (n *Node) attachRollup(st *brick.Store) {
	if n.cfg.RollupTimeDim == "" {
		return
	}
	schema := st.Schema()
	if schema.DimIndex(n.cfg.RollupTimeDim) < 0 {
		return
	}
	cfg := rollup.Config{TimeDim: n.cfg.RollupTimeDim, Bucket: n.cfg.RollupBucket}
	if cfg.Bucket == 0 {
		cfg.Bucket = 1
	}
	if len(n.cfg.RollupDims) > 0 {
		for _, d := range n.cfg.RollupDims {
			if d != cfg.TimeDim && schema.DimIndex(d) >= 0 {
				cfg.Dims = append(cfg.Dims, d)
			}
		}
	} else {
		for _, d := range schema.Dimensions {
			if d.Name != cfg.TimeDim {
				cfg.Dims = append(cfg.Dims, d.Name)
			}
		}
	}
	for _, d := range n.cfg.RollupDistinct {
		if schema.DimIndex(d) >= 0 {
			cfg.DistinctDims = append(cfg.DistinctDims, d)
		}
	}
	tbl, err := rollup.New(schema, cfg)
	if err != nil {
		return
	}
	n.rollupMu.Lock()
	if n.rollups == nil {
		n.rollups = make(map[*brick.Store]*rollup.Table)
	}
	n.rollups[st] = tbl
	n.rollupMu.Unlock()
	st.SetIngestObserver(func() {
		_, _ = tbl.CatchUp(st)
	})
}

// rollupFor returns the store's rollup table, nil when rollups are off.
func (n *Node) rollupFor(st *brick.Store) *rollup.Table {
	n.rollupMu.Lock()
	defer n.rollupMu.Unlock()
	return n.rollups[st]
}

// forgetStores drops the per-store state of dropped stores — rollup tables
// and scan schedulers — so neither map keeps the stores' bricks reachable.
func (n *Node) forgetStores(stores map[string]*brick.Store) {
	n.rollupMu.Lock()
	for _, st := range stores {
		delete(n.rollups, st)
	}
	n.rollupMu.Unlock()
	n.schedMu.Lock()
	for _, st := range stores {
		delete(n.scheds, st)
	}
	n.schedMu.Unlock()
}

// RollupStats sums rollup maintenance counters across the node's tables.
func (n *Node) RollupStats() rollup.Stats {
	n.rollupMu.Lock()
	defer n.rollupMu.Unlock()
	var total rollup.Stats
	for _, tbl := range n.rollups {
		s := tbl.Stats()
		total.Catchups += s.Catchups
		total.FoldedRows += s.FoldedRows
		total.Rebuilds += s.Rebuilds
		total.Groups += s.Groups
	}
	return total
}

// NewNode constructs a Cubrick server for a host in a region.
func NewNode(host *cluster.Host, region string, catalog *Catalog, cfg NodeConfig) *Node {
	return &Node{
		host:     host,
		region:   region,
		catalog:  catalog,
		cfg:      cfg,
		shards:   make(map[int64]map[string]*brick.Store),
		staged:   make(map[int64]map[string]*brick.Store),
		forwards: make(map[int64]string),
		scheds:   make(map[*brick.Store]*engine.Scheduler),
	}
}

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
		n.shards[shard] = make(map[string]*brick.Store)
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
		if _, ok := n.shards[shard][name]; ok {
			continue
		}
		if st, ok := staged[name]; ok {
			n.shards[shard][name] = st
			continue
		}
		st, err := n.newStore(ref.Schema)
		if err != nil {
			return err
		}
		if blob, ok := recovered[name]; ok {
			if err := st.Import(blob); err != nil {
				return err
			}
		}
		n.shards[shard][name] = st
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
	n.shards = make(map[int64]map[string]*brick.Store)
	n.staged = make(map[int64]map[string]*brick.Store)
	n.forwards = make(map[int64]string)
	n.replicated = make(map[string]*brick.Store)
	n.rollupMu.Lock()
	n.rollups = nil
	n.rollupMu.Unlock()
}

// DropShard implements shardmgr.AppServer: all data and metadata for the
// shard are deleted. (Production Cubrick also waits for the request rate
// to reach zero; the forwarding map covers requests that raced the drop.)
func (n *Node) DropShard(shard int64) error {
	n.mu.Lock()
	live, staged := n.shards[shard], n.staged[shard]
	delete(n.shards, shard)
	delete(n.staged, shard)
	delete(n.forwards, shard)
	n.mu.Unlock()
	n.forgetStores(live)
	n.forgetStores(staged)
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
		st, err := n.newStore(ref.Schema)
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
	parts := n.shards[shard]
	stores := make(map[string]*brick.Store, len(parts))
	for name, st := range parts {
		stores[name] = st
	}
	n.mu.Unlock()
	if stores == nil {
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

// store returns the live store of one partition of a shard.
func (n *Node) store(shard int64, partName string) (*brick.Store, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	parts, ok := n.shards[shard]
	if !ok {
		return nil, fmt.Errorf("%w: shard %d on %s", ErrNotServing, shard, n.host.Name)
	}
	st, ok := parts[partName]
	if !ok {
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
	parts, ok := n.shards[shard]
	if !ok {
		return fmt.Errorf("%w: shard %d on %s", ErrNotServing, shard, n.host.Name)
	}
	if _, ok := parts[ref.Name()]; ok {
		return nil
	}
	st, err := n.newStore(ref.Schema)
	if err != nil {
		return err
	}
	parts[ref.Name()] = st
	return nil
}

// DropPartition removes one partition's store (table drop / re-partition).
func (n *Node) DropPartition(shard int64, partName string) {
	n.mu.Lock()
	var dropped *brick.Store
	if parts, ok := n.shards[shard]; ok {
		dropped = parts[partName]
		delete(parts, partName)
	}
	n.mu.Unlock()
	if dropped != nil {
		n.forgetStores(map[string]*brick.Store{partName: dropped})
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

// ExecutePartialCtx is ExecutePartial with a context: the query passes the
// node's admission controller (queueing or shedding under load, with
// tenant and priority drawn from admission.MetaFrom(ctx)), then runs as a
// brick pass of the store's scan scheduler — shared with concurrent
// queries of equal fold key when FoldScans is on.
func (n *Node) ExecutePartialCtx(ctx context.Context, shard int64, partName string, q *engine.Query) (*engine.Partial, error) {
	st, err := n.store(shard, partName)
	if err != nil {
		return nil, err
	}
	if ac := n.admission(); ac != nil {
		meta := admission.MetaFrom(ctx)
		tkt, err := ac.Admit(ctx, meta.Tenant, meta.Priority)
		if err != nil {
			return nil, err
		}
		defer tkt.Release()
	}
	// Rollup-served path: eligible queries answer from the partition's
	// incremental rollup (whole buckets pre-aggregated, delta and edge
	// rows scanned raw) before any full-scan machinery engages.
	if tbl := n.rollupFor(st); tbl != nil {
		if p, _, ok, err := engine.ExecuteRollup(ctx, st, tbl, q); err == nil && ok {
			return p, nil
		}
	}
	p, _, err := n.scheduler(partName, st).Run(ctx, q, engine.Opts{Unshared: !n.foldScans()})
	return p, err
}

// SetAdmission installs (or with nil removes) the node's admission
// controller.
func (n *Node) SetAdmission(c *admission.Controller) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.admit = c
}

func (n *Node) admission() *admission.Controller {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.admit
}

// SetFoldScans toggles shared-scan folding at runtime.
func (n *Node) SetFoldScans(on bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.cfg.FoldScans = on
}

func (n *Node) foldScans() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.cfg.FoldScans
}

// scheduler returns the store's scan scheduler, creating it on first use.
// partName scopes the node-wide brick cache so partitions sharing it never
// collide on keys.
func (n *Node) scheduler(partName string, st *brick.Store) *engine.Scheduler {
	bc, _ := n.caches()
	n.schedMu.Lock()
	defer n.schedMu.Unlock()
	s := n.scheds[st]
	if s == nil {
		s = engine.NewScheduler(st, engine.SchedulerConfig{
			BrickCache: bc,
			CacheScope: partName,
		})
		n.scheds[st] = s
	}
	return s
}

// FoldStats sums folding counters across the node's schedulers.
func (n *Node) FoldStats() engine.FoldStats {
	n.schedMu.Lock()
	defer n.schedMu.Unlock()
	var total engine.FoldStats
	for _, s := range n.scheds {
		st := s.Stats()
		total.Solo += st.Solo
		total.Attached += st.Attached
		total.CatchupBricks += st.CatchupBricks
	}
	return total
}

// enforceBudget runs the memory monitor when a budget is configured:
// gen 1/2 compress cold bricks (§IV-F2); gen 3 additionally evicts the
// coldest to SSD (§IV-F3).
func (n *Node) enforceBudget() {
	if n.cfg.MemoryBudgetBytes <= 0 {
		return
	}
	share := n.cfg.MemoryBudgetBytes / int64(max(1, n.storeCount()))
	for _, st := range n.allStores() {
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
	for _, st := range n.allStores() {
		_, _, _ = st.EnsureBudget(0, 0.5)
	}
}

// DecompressAll restores every brick to the uncompressed tier.
func (n *Node) DecompressAll() {
	for _, st := range n.allStores() {
		_, _, _ = st.EnsureBudget(1<<62, 1.0)
	}
}

// Compact runs one hotness-driven compaction pass over every store on the
// node, walking bricks down (or back up) the raw → encoded → SSD ladder.
// The cubrick-server background compactor calls this on a ticker.
func (n *Node) Compact(cfg brick.CompactionConfig) (brick.CompactionStats, error) {
	var total brick.CompactionStats
	for _, st := range n.allStores() {
		s, err := st.CompactOnce(cfg)
		total.Add(s)
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// SSDReads returns the node's total SSD read count — the IOPS signal
// §IV-F3 investigates as an additional load-balancing metric.
func (n *Node) SSDReads() int64 {
	var sum int64
	for _, st := range n.allStores() {
		sum += st.SSDReads()
	}
	return sum
}

// WorkingSetBytes returns the decompressed size of this node's bricks
// hotter than the threshold.
func (n *Node) WorkingSetBytes(hotThreshold float64) int64 {
	var sum int64
	for _, st := range n.allStores() {
		sum += st.WorkingSetBytes(hotThreshold)
	}
	return sum
}

func (n *Node) storeCount() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	c := 0
	for _, parts := range n.shards {
		c += len(parts)
	}
	return c
}

func (n *Node) allStores() []*brick.Store {
	n.mu.Lock()
	defer n.mu.Unlock()
	var out []*brick.Store
	for _, parts := range n.shards {
		for _, st := range parts {
			out = append(out, st)
		}
	}
	return out
}

// DecayHotness cools every brick on the node (periodic tick).
func (n *Node) DecayHotness() {
	for _, st := range n.allStores() {
		st.DecayHotness(n.cfg.HotnessDecay)
	}
}

// HeatSnapshot returns all bricks' heat samples (Fig 4e input).
func (n *Node) HeatSnapshot() []brick.BrickHeat {
	var out []brick.BrickHeat
	for _, st := range n.allStores() {
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
	for sh, parts := range n.shards {
		e := entry{shard: sh}
		for _, st := range parts {
			e.stores = append(e.stores, st)
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
	for _, st := range n.allStores() {
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
