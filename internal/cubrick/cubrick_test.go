package cubrick

import (
	"context"
	"errors"
	"testing"
	"time"

	"cubrick/internal/brick"
	"cubrick/internal/cluster"
	"cubrick/internal/core"
	"cubrick/internal/engine"
	"cubrick/internal/randutil"
	"cubrick/internal/workload"
)

var epoch = time.Date(2021, 1, 1, 0, 0, 0, 0, time.UTC)

func smallSchema() brick.Schema {
	return brick.Schema{
		Dimensions: []brick.Dimension{
			{Name: "ds", Max: 30, Buckets: 6},
			{Name: "app", Max: 20, Buckets: 4},
		},
		Metrics: []brick.Metric{{Name: "value"}},
	}
}

func testDeployment(t *testing.T) *Deployment {
	t.Helper()
	return testDeploymentNode(t, DefaultNodeConfig())
}

// testDeploymentNode is testDeployment with the given node configuration.
func testDeploymentNode(t *testing.T, node NodeConfig) *Deployment {
	t.Helper()
	cfg := DefaultDeploymentConfig()
	cfg.Node = node
	cfg.Policy.InitialPartitions = 4
	cfg.Transport.RequestFailureProb = 0 // deterministic tests
	d, err := Open(cfg, epoch)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// loadRows inserts n deterministic rows and returns the expected sum of
// the value metric.
func loadRows(t *testing.T, d *Deployment, table string, n int) float64 {
	t.Helper()
	dims := make([][]uint32, n)
	metrics := make([][]float64, n)
	var sum float64
	for i := 0; i < n; i++ {
		dims[i] = []uint32{uint32(i) % 30, uint32(i) % 20}
		metrics[i] = []float64{float64(i)}
		sum += float64(i)
	}
	if err := d.Load(table, dims, metrics); err != nil {
		t.Fatal(err)
	}
	return sum
}

func sumQuery() *engine.Query {
	return &engine.Query{Aggregates: []engine.Aggregate{{Func: engine.Sum, Metric: "value", Alias: "total"}}}
}

func TestCatalogLifecycle(t *testing.T) {
	c := NewCatalog(core.MonotonicMapper{MaxShards: 1000}, core.DefaultPartitionPolicy())
	info, err := c.CreateTable("t1", smallSchema())
	if err != nil {
		t.Fatal(err)
	}
	if info.Partitions != 8 {
		t.Fatalf("partitions = %d, want 8 (policy initial)", info.Partitions)
	}
	if _, err := c.CreateTable("t1", smallSchema()); !errors.Is(err, ErrTableExists) {
		t.Fatalf("duplicate create = %v", err)
	}
	if _, err := c.CreateTable("bad#name", smallSchema()); err == nil {
		t.Fatal("reserved character accepted")
	}
	if _, err := c.Table("ghost"); !errors.Is(err, ErrNoTable) {
		t.Fatalf("unknown table = %v", err)
	}
	// Shard index covers all partitions.
	shards, err := c.ShardsOf("t1")
	if err != nil || len(shards) != 8 {
		t.Fatalf("ShardsOf = %v, %v", shards, err)
	}
	for p, sh := range shards {
		refs := c.PartitionsOf(sh)
		found := false
		for _, r := range refs {
			if r.Table == "t1" && r.Partition == p {
				found = true
			}
		}
		if !found {
			t.Fatalf("shard %d missing partition %d in index", sh, p)
		}
	}
	if err := c.DropTable("t1"); err != nil {
		t.Fatal(err)
	}
	if err := c.DropTable("t1"); !errors.Is(err, ErrNoTable) {
		t.Fatalf("double drop = %v", err)
	}
	for _, sh := range shards {
		if len(c.PartitionsOf(sh)) != 0 {
			t.Fatal("index not cleaned after drop")
		}
	}
}

func TestCreateTablePlacesAllRegions(t *testing.T) {
	d := testDeployment(t)
	info, err := d.CreateTable("metrics", smallSchema())
	if err != nil {
		t.Fatal(err)
	}
	for _, region := range d.Config.Regions {
		for p := 0; p < info.Partitions; p++ {
			shard := d.Catalog.ShardOf("metrics", p)
			a, err := d.SM.Assignment(ServiceName(region), shard)
			if err != nil {
				t.Fatalf("region %s partition %d unassigned: %v", region, p, err)
			}
			h, _ := d.Fleet.Host(a.Primary())
			if h.Region != region {
				t.Fatalf("shard for %s placed in %s", region, h.Region)
			}
			node, _ := d.Node(a.Primary())
			if _, err := node.store(shard, core.PartitionName("metrics", p)); err != nil {
				t.Fatalf("partition store missing on %s: %v", a.Primary(), err)
			}
		}
	}
}

func TestLoadAndQueryAllRegions(t *testing.T) {
	d := testDeployment(t)
	if _, err := d.CreateTable("metrics", smallSchema()); err != nil {
		t.Fatal(err)
	}
	want := loadRows(t, d, "metrics", 600)
	for _, region := range d.Config.Regions {
		res, err := d.Query(context.Background(), region, "metrics", sumQuery(), 0)
		if err != nil {
			t.Fatalf("query in %s: %v", region, err)
		}
		if len(res.Rows) != 1 || res.Rows[0][0] != want {
			t.Fatalf("region %s sum = %v, want %v", region, res.Rows, want)
		}
		if res.Partitions != 4 || res.Table != "metrics" {
			t.Fatalf("metadata = %+v", res)
		}
		if res.Latency <= 0 {
			t.Fatal("no sampled latency")
		}
		if res.Fanout < 1 || res.Fanout > 4 {
			t.Fatalf("fanout = %d", res.Fanout)
		}
	}
}

func TestQueryGroupByAcrossPartitions(t *testing.T) {
	d := testDeployment(t)
	d.CreateTable("metrics", smallSchema())
	loadRows(t, d, "metrics", 600)
	q := &engine.Query{
		Aggregates: []engine.Aggregate{{Func: engine.Count, Alias: "n"}},
		GroupBy:    []string{"app"},
	}
	res, err := d.Query(context.Background(), "east", "metrics", q, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 20 {
		t.Fatalf("groups = %d, want 20", len(res.Rows))
	}
	var total float64
	for _, row := range res.Rows {
		total += row[1]
	}
	if total != 600 {
		t.Fatalf("total count = %v, want 600", total)
	}
}

func TestPartialShardingFanout(t *testing.T) {
	d := testDeployment(t)
	d.CreateTable("metrics", smallSchema())
	clusterSize := len(d.Fleet.Region("east"))
	distinct, err := d.DistinctHosts("metrics", "east")
	if err != nil {
		t.Fatal(err)
	}
	if distinct > 4 {
		t.Fatalf("table touches %d hosts, partitions = 4", distinct)
	}
	if distinct >= clusterSize {
		t.Fatalf("partial sharding did not bound fan-out: %d hosts of %d", distinct, clusterSize)
	}
}

func TestQueryFailsWhenHostDownAndRecoversViaFailover(t *testing.T) {
	d := testDeployment(t)
	d.CreateTable("metrics", smallSchema())
	want := loadRows(t, d, "metrics", 400)

	// Kill the host serving partition 0 in east.
	shard := d.Catalog.ShardOf("metrics", 0)
	a, _ := d.SM.Assignment(ServiceName("east"), shard)
	victim, _ := d.Fleet.Host(a.Primary())
	victim.SetState(cluster.Down)

	// Query in east now fails with a retryable region error...
	if _, err := d.Query(context.Background(), "east", "metrics", sumQuery(), 0); !errors.Is(err, ErrRegionUnavailable) {
		t.Fatalf("query with dead host = %v, want ErrRegionUnavailable", err)
	}
	// ...while west still answers (cross-region retry target, §IV-D).
	res, err := d.Query(context.Background(), "west", "metrics", sumQuery(), 0)
	if err != nil || res.Rows[0][0] != want {
		t.Fatalf("west query = %v, %v", res, err)
	}

	// Let heartbeats lapse; SM fails the dead host's shards over, and the
	// replacement recovers data from a healthy region.
	for i := 0; i < 20; i++ {
		d.Clock.Advance(5 * time.Second)
		d.SM.Sweep()
	}
	res, err = d.Query(context.Background(), "east", "metrics", sumQuery(), 0)
	if err != nil {
		t.Fatalf("east query after failover: %v", err)
	}
	if res.Rows[0][0] != want {
		t.Fatalf("east sum after failover = %v, want %v (data recovered cross-region)", res.Rows[0][0], want)
	}
	newA, _ := d.SM.Assignment(ServiceName("east"), shard)
	if newA.Primary() == victim.Name {
		t.Fatal("shard still on dead host")
	}
}

func TestGracefulMigrationPreservesQueries(t *testing.T) {
	d := testDeployment(t)
	d.CreateTable("metrics", smallSchema())
	want := loadRows(t, d, "metrics", 300)

	shard := d.Catalog.ShardOf("metrics", 1)
	svc := ServiceName("east")
	a, _ := d.SM.Assignment(svc, shard)
	from := a.Primary()
	// Pick any other east host as the target.
	var to string
	for _, h := range d.Fleet.Region("east") {
		if h.Name != from {
			// The target must not cause a shard collision; the first
			// non-colliding host works since each host has ≤1 shard of
			// this table.
			if err := d.SM.MigrateShard(svc, shard, from, h.Name); err == nil {
				to = h.Name
				break
			}
		}
	}
	if to == "" {
		t.Fatal("no migration target accepted the shard")
	}
	// Before the propagation wait elapses, both copies exist; query works.
	res, err := d.Query(context.Background(), "east", "metrics", sumQuery(), 0)
	if err != nil || res.Rows[0][0] != want {
		t.Fatalf("query during migration = %v, %v", res, err)
	}
	// After the wait, the old copy is dropped; queries still work.
	d.Clock.Advance(d.Config.PropagationWait + time.Second)
	res, err = d.Query(context.Background(), "east", "metrics", sumQuery(), 0)
	if err != nil || res.Rows[0][0] != want {
		t.Fatalf("query after migration = %v, %v", res, err)
	}
	fromNode, _ := d.Node(from)
	for _, sh := range fromNode.Shards() {
		if sh == shard {
			t.Fatal("old server still owns migrated shard")
		}
	}
}

func TestShardCollisionRejected(t *testing.T) {
	d := testDeployment(t)
	d.CreateTable("metrics", smallSchema())
	svc := ServiceName("east")
	sh0 := d.Catalog.ShardOf("metrics", 0)
	sh1 := d.Catalog.ShardOf("metrics", 1)
	a0, _ := d.SM.Assignment(svc, sh0)
	a1, _ := d.SM.Assignment(svc, sh1)
	if a0.Primary() == a1.Primary() {
		t.Skip("partitions landed together at creation")
	}
	// Migrating shard 1 onto shard 0's host must be rejected as
	// non-retryable (§IV-A).
	err := d.SM.MigrateShard(svc, sh1, a1.Primary(), a0.Primary())
	if err == nil {
		t.Fatal("collision-inducing migration accepted")
	}
	// The shard must still be fully served from its original host.
	res, qerr := d.Query(context.Background(), "east", "metrics", sumQuery(), 0)
	if qerr != nil {
		t.Fatalf("query after rejected migration: %v (res=%v, err=%v)", qerr, res, err)
	}
}

func TestCrossTablePartitionCollisionSharesShard(t *testing.T) {
	// Force a collision by using a tiny shard space: with 4 shards and 4
	// partitions per table, two tables inevitably share every shard, and
	// both must remain queryable.
	cfg := DefaultDeploymentConfig()
	cfg.MaxShards = 4
	cfg.Policy.InitialPartitions = 4
	cfg.Transport.RequestFailureProb = 0
	d, err := Open(cfg, epoch)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.CreateTable("alpha", smallSchema()); err != nil {
		t.Fatal(err)
	}
	if _, err := d.CreateTable("beta", smallSchema()); err != nil {
		t.Fatal(err)
	}
	wantA := loadRows(t, d, "alpha", 200)
	// Load beta with doubled metric values.
	dims := make([][]uint32, 200)
	metrics := make([][]float64, 200)
	var wantB float64
	for i := range dims {
		dims[i] = []uint32{uint32(i) % 30, uint32(i) % 20}
		metrics[i] = []float64{float64(2 * i)}
		wantB += float64(2 * i)
	}
	if err := d.Load("beta", dims, metrics); err != nil {
		t.Fatal(err)
	}
	resA, err := d.Query(context.Background(), "east", "alpha", sumQuery(), 0)
	if err != nil || resA.Rows[0][0] != wantA {
		t.Fatalf("alpha = %v, %v; want %v", resA.Rows, err, wantA)
	}
	resB, err := d.Query(context.Background(), "east", "beta", sumQuery(), 0)
	if err != nil || resB.Rows[0][0] != wantB {
		t.Fatalf("beta = %v, %v; want %v", resB.Rows, err, wantB)
	}
	// The catalog must report the cross-table collision.
	rep := d.CollisionReport("east")
	if rep.TablesWithCrossPartitionCollision == 0 {
		t.Fatal("no cross-table collision despite 8-shard key space")
	}
	if rep.TablesWithSamePartitionCollision != 0 {
		t.Fatal("monotonic mapping produced same-table collision")
	}
}

func TestDropTableCleansUp(t *testing.T) {
	d := testDeployment(t)
	d.CreateTable("metrics", smallSchema())
	loadRows(t, d, "metrics", 100)
	shards, _ := d.Catalog.ShardsOf("metrics")
	if err := d.DropTable("metrics"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Query(context.Background(), "east", "metrics", sumQuery(), 0); !errors.Is(err, ErrNoTable) {
		t.Fatalf("query after drop = %v", err)
	}
	for _, sh := range shards {
		if _, err := d.SM.Assignment(ServiceName("east"), sh); err == nil {
			t.Fatalf("shard %d still assigned after table drop", sh)
		}
	}
}

func TestRepartitionGrowPreservesData(t *testing.T) {
	cfg := DefaultDeploymentConfig()
	cfg.Policy.InitialPartitions = 2
	cfg.Policy.MaxPartitionBytes = 2048 // tiny, to trigger growth
	cfg.Policy.MinPartitionBytes = 16
	cfg.Transport.RequestFailureProb = 0
	d, err := Open(cfg, epoch)
	if err != nil {
		t.Fatal(err)
	}
	d.CreateTable("grower", smallSchema())
	want := loadRows(t, d, "grower", 1500) // 1500 rows × 16B = 24000B > 2×2048

	decision, newParts, err := d.Repartition("grower")
	if err != nil {
		t.Fatal(err)
	}
	if decision != core.Grow || newParts != 4 {
		t.Fatalf("repartition = %v/%d, want grow/4", decision, newParts)
	}
	info, _ := d.Catalog.Table("grower")
	if info.Partitions != 4 || info.Version != 1 {
		t.Fatalf("catalog after grow: %+v", info)
	}
	for _, region := range d.Config.Regions {
		res, err := d.Query(context.Background(), region, "grower", sumQuery(), 0)
		if err != nil || res.Rows[0][0] != want {
			t.Fatalf("region %s after grow: %v, %v; want %v", region, res.Rows, err, want)
		}
		if res.Partitions != 4 {
			t.Fatalf("metadata partitions = %d", res.Partitions)
		}
	}
}

func TestRepartitionKeepWhenSmall(t *testing.T) {
	d := testDeployment(t)
	d.CreateTable("tiny", smallSchema())
	loadRows(t, d, "tiny", 10)
	decision, parts, err := d.Repartition("tiny")
	if err != nil {
		t.Fatal(err)
	}
	if decision != core.Keep || parts != 4 {
		t.Fatalf("repartition tiny = %v/%d, want keep/4", decision, parts)
	}
}

func TestMetricGenerations(t *testing.T) {
	d := testDeployment(t)
	d.CreateTable("metrics", smallSchema())
	loadRows(t, d, "metrics", 2000)
	shard := d.Catalog.ShardOf("metrics", 0)
	a, _ := d.SM.Assignment(ServiceName("east"), shard)
	node, _ := d.Node(a.Primary())

	node.cfg.MetricGen = Gen1
	gen1 := node.ShardLoads()[shard]
	node.cfg.MetricGen = Gen2
	gen2 := node.ShardLoads()[shard]
	if gen1 <= 0 || gen2 <= 0 {
		t.Fatalf("loads: gen1=%v gen2=%v", gen1, gen2)
	}
	// Compress everything on that node; gen1 (resident) shrinks, gen2
	// (decompressed) must not change — the §IV-F2 fix.
	for _, st := range node.parts.Stores() {
		st.EnsureBudget(0, 0.5)
	}
	node.cfg.MetricGen = Gen1
	gen1c := node.ShardLoads()[shard]
	node.cfg.MetricGen = Gen2
	gen2c := node.ShardLoads()[shard]
	if gen1c >= gen1 {
		t.Fatalf("gen1 metric did not shrink under compression: %v -> %v", gen1, gen1c)
	}
	if gen2c != gen2 {
		t.Fatalf("gen2 metric changed under compression: %v -> %v", gen2, gen2c)
	}
	// Capacity scaling.
	node.cfg.MetricGen = Gen1
	c1 := node.Capacity()
	node.cfg.MetricGen = Gen2
	c2 := node.Capacity()
	if c2 != c1*node.cfg.AvgCompressionRatio {
		t.Fatalf("gen2 capacity = %v, want %v × ratio", c2, c1)
	}
	for _, g := range []MetricGeneration{Gen1, Gen2, Gen3, MetricGeneration(9)} {
		if g.String() == "" {
			t.Fatal("empty MetricGeneration string")
		}
	}
}

func TestNodeHeatAndDecay(t *testing.T) {
	d := testDeployment(t)
	d.CreateTable("metrics", smallSchema())
	loadRows(t, d, "metrics", 200)
	for i := 0; i < 5; i++ {
		if _, err := d.Query(context.Background(), "east", "metrics", sumQuery(), 0); err != nil {
			t.Fatal(err)
		}
	}
	var hot int
	for _, n := range d.Nodes() {
		for _, h := range n.HeatSnapshot() {
			if h.Hotness > 0 {
				hot++
			}
		}
		n.DecayHotness()
	}
	if hot == 0 {
		t.Fatal("queries generated no heat")
	}
}

func TestSurvivesSMUnavailability(t *testing.T) {
	// §V-C: with SM down (no sweeps, no balancing), loads and queries keep
	// working off the existing assignments.
	d := testDeployment(t)
	d.CreateTable("metrics", smallSchema())
	want := loadRows(t, d, "metrics", 100)
	// Simulate a week of SM being down: time passes, no Sweep calls.
	d.Clock.Advance(7 * 24 * time.Hour)
	res, err := d.Query(context.Background(), "east", "metrics", sumQuery(), 0)
	if err != nil || res.Rows[0][0] != want {
		t.Fatalf("query with SM down = %v, %v", res, err)
	}
	if err := d.Load("metrics", [][]uint32{{1, 1}}, [][]float64{{5}}); err != nil {
		t.Fatalf("load with SM down: %v", err)
	}
}

func TestLoadGenerated(t *testing.T) {
	d := testDeployment(t)
	schema := workload.StandardSchema()
	d.CreateTable("gen", schema)
	gen := workload.NewRowGenerator(schema, randutil.New(5))
	if err := d.LoadGenerated("gen", 500, gen); err != nil {
		t.Fatal(err)
	}
	q := &engine.Query{Aggregates: []engine.Aggregate{{Func: engine.Count, Alias: "n"}}}
	res, err := d.Query(context.Background(), "east", "gen", q, 0)
	if err != nil || res.Rows[0][0] != 500 {
		t.Fatalf("generated rows = %v, %v", res.Rows, err)
	}
}

func TestCoordinatorSelection(t *testing.T) {
	d := testDeployment(t)
	d.CreateTable("metrics", smallSchema())
	loadRows(t, d, "metrics", 50)
	seen := make(map[string]bool)
	for p := 0; p < 4; p++ {
		res, err := d.Query(context.Background(), "east", "metrics", sumQuery(), p)
		if err != nil {
			t.Fatal(err)
		}
		seen[res.Coordinator] = true
	}
	if len(seen) < 2 {
		t.Fatalf("coordinator did not vary with partition choice: %v", seen)
	}
	// Out-of-range coordinator clamps to 0.
	if _, err := d.Query(context.Background(), "east", "metrics", sumQuery(), 99); err != nil {
		t.Fatal(err)
	}
}

func TestDeploymentAccessors(t *testing.T) {
	d := testDeployment(t)
	d.CreateTable("a", smallSchema())
	d.CreateTable("b", smallSchema())
	tables := d.Catalog.Tables()
	if len(tables) != 2 || tables[0].Name != "a" || tables[1].Name != "b" {
		t.Fatalf("Tables = %+v", tables)
	}
	before := d.Clock.Now()
	d.Settle()
	if !d.Clock.Now().After(before) {
		t.Fatal("Settle did not advance time")
	}
	// Node memory accounting + metric-gen helpers.
	loadRows(t, d, "a", 200)
	shard := d.Catalog.ShardOf("a", 0)
	assign, _ := d.SM.Assignment(ServiceName("east"), shard)
	node, _ := d.Node(assign.Primary())
	if node.MemoryBytes() <= 0 {
		t.Fatal("MemoryBytes = 0 after load")
	}
	node.SetMetricGen(Gen1)
	resident := node.MemoryBytes()
	node.CompressAll()
	if node.MemoryBytes() >= resident {
		t.Fatal("CompressAll did not shrink residency")
	}
	node.DecompressAll()
	if node.MemoryBytes() != resident {
		t.Fatalf("DecompressAll did not restore residency: %d vs %d", node.MemoryBytes(), resident)
	}
}
