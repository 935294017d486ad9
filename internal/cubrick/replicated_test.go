package cubrick

import (
	"errors"
	"testing"

	"cubrick/internal/brick"
	"cubrick/internal/cluster"
	"cubrick/internal/core"
	"cubrick/internal/engine"
	"cubrick/internal/shardmgr"
)

func dimTableSchema() brick.Schema {
	return brick.Schema{
		Dimensions: []brick.Dimension{
			{Name: "app", Max: 20, Buckets: 4},
			{Name: "team", Max: 4, Buckets: 4},
		},
	}
}

// setupJoin creates a sharded fact table and a replicated dimension table:
// fact has one row per (ds, app) with value = app; dims maps app -> team
// (app % 4).
func setupJoin(t *testing.T) *Deployment {
	t.Helper()
	d := testDeployment(t)
	if _, err := d.CreateTable("fact", smallSchema()); err != nil {
		t.Fatal(err)
	}
	var fdims [][]uint32
	var fmets [][]float64
	for ds := uint32(0); ds < 10; ds++ {
		for app := uint32(0); app < 20; app++ {
			fdims = append(fdims, []uint32{ds, app})
			fmets = append(fmets, []float64{float64(app)})
		}
	}
	if err := d.Load("fact", fdims, fmets); err != nil {
		t.Fatal(err)
	}
	if _, err := d.CreateReplicatedTable("apps", dimTableSchema()); err != nil {
		t.Fatal(err)
	}
	var ddims [][]uint32
	var dmets [][]float64
	for app := uint32(0); app < 20; app++ {
		ddims = append(ddims, []uint32{app, app % 4})
		dmets = append(dmets, nil)
	}
	if err := d.LoadReplicated("apps", ddims, dmets); err != nil {
		t.Fatal(err)
	}
	return d
}

func TestReplicatedTableOnEveryNode(t *testing.T) {
	d := setupJoin(t)
	for _, n := range d.Nodes() {
		st, err := n.ReplicatedStore("apps")
		if err != nil {
			t.Fatalf("node %s missing replica: %v", n.Host().Name, err)
		}
		if st.Rows() != 20 {
			t.Fatalf("node %s replica has %d rows, want 20", n.Host().Name, st.Rows())
		}
	}
	info, _ := d.Catalog.Table("apps")
	if !info.Replicated || info.Partitions != 1 {
		t.Fatalf("catalog entry = %+v", info)
	}
	// Replicated tables have no shard mapping.
	if _, err := d.Catalog.ShardsOf("apps"); err == nil {
		t.Fatal("ShardsOf on replicated table succeeded")
	}
}

func TestQueryJoinGroupByTeam(t *testing.T) {
	d := setupJoin(t)
	q := &engine.Query{
		Aggregates: []engine.Aggregate{{Func: engine.Sum, Metric: "value", Alias: "total"}},
		GroupBy:    []string{"team"},
	}
	for _, region := range d.Config.Regions {
		res, err := d.QueryJoin(region, "fact", "apps", q, 0)
		if err != nil {
			t.Fatalf("join in %s: %v", region, err)
		}
		if len(res.Rows) != 4 {
			t.Fatalf("teams = %d, want 4", len(res.Rows))
		}
		for _, row := range res.Rows {
			k := row[0]
			want := 10 * (5*k + 40) // see engine join tests
			if row[1] != want {
				t.Fatalf("region %s team %v total = %v, want %v", region, k, row[1], want)
			}
		}
	}
}

func TestQueryJoinAttributeFilter(t *testing.T) {
	d := setupJoin(t)
	q := &engine.Query{
		Aggregates: []engine.Aggregate{{Func: engine.Count, Alias: "n"}},
		Filter:     map[string][2]uint32{"team": {2, 2}},
	}
	res, err := d.QueryJoin("east", "fact", "apps", q, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0] != 50 { // 5 apps in team 2 × 10 ds
		t.Fatalf("count = %v, want 50", res.Rows[0][0])
	}
}

func TestQueryJoinErrors(t *testing.T) {
	d := setupJoin(t)
	q := &engine.Query{Aggregates: []engine.Aggregate{{Func: engine.Count}}}
	if _, err := d.QueryJoin("east", "ghost", "apps", q, 0); !errors.Is(err, ErrNoTable) {
		t.Fatalf("unknown fact = %v", err)
	}
	if _, err := d.QueryJoin("east", "fact", "ghost", q, 0); !errors.Is(err, ErrNoTable) {
		t.Fatalf("unknown dim = %v", err)
	}
	// Joining against a sharded table is rejected.
	if _, err := d.QueryJoin("east", "fact", "fact", q, 0); err == nil {
		t.Fatal("join against sharded table accepted")
	}
	// Using a replicated table as the fact side is rejected.
	if _, err := d.QueryJoin("east", "apps", "apps", q, 0); err == nil {
		t.Fatal("replicated fact table accepted")
	}
}

func TestQueryJoinFailsOverRegions(t *testing.T) {
	d := setupJoin(t)
	shard := d.Catalog.ShardOf("fact", 0)
	a, _ := d.SM.Assignment(ServiceName("east"), shard)
	h, _ := d.Fleet.Host(a.Primary())
	h.SetState(cluster.Down)
	q := &engine.Query{Aggregates: []engine.Aggregate{{Func: engine.Count}}}
	if _, err := d.QueryJoin("east", "fact", "apps", q, 0); !errors.Is(err, ErrRegionUnavailable) {
		t.Fatalf("join with dead host = %v, want ErrRegionUnavailable", err)
	}
	if res, err := d.QueryJoin("west", "fact", "apps", q, 0); err != nil || res.Rows[0][0] != 200 {
		t.Fatalf("west join = %v, %v", res, err)
	}
}

// TestQueryJoinFollowsForwardDuringMigration: a join that resolves a
// partition to a host that released it mid-query (graceful migration,
// §IV-E) follows the forward to the new owner like Query does, stays exact
// and says so: Coverage is 1, and a failure keeps its cause matchable.
func TestQueryJoinFollowsForwardDuringMigration(t *testing.T) {
	d := setupJoin(t)
	shard := d.Catalog.ShardOf("fact", 0)
	a, _ := d.SM.Assignment(ServiceName("east"), shard)
	from := a.Primary()
	fromNode, _ := d.Node(from)
	// Copy the shard to a new owner behind SM's back, so resolution still
	// names the old one, then release the partition on the old owner.
	var toNode *Node
	for _, h := range d.Fleet.Region("east") {
		n, _ := d.Node(h.Name)
		if h.Name != from && n.PrepareAddShard(shard, from) == nil {
			toNode = n
			break
		}
	}
	if toNode == nil {
		t.Skip("no collision-free migration target")
	}
	if err := toNode.AddShard(shard, shardmgr.Primary); err != nil {
		t.Fatal(err)
	}
	if err := fromNode.PrepareDropShard(shard, toNode.Host().Name); err != nil {
		t.Fatal(err)
	}
	fromNode.DropPartition(shard, core.PartitionName("fact", 0))

	q := &engine.Query{Aggregates: []engine.Aggregate{{Func: engine.Count}}}
	res, err := d.QueryJoin("east", "fact", "apps", q, 0)
	if err != nil {
		t.Fatalf("join during migration: %v", err)
	}
	if res.Rows[0][0] != 200 || res.Coverage != 1 {
		t.Fatalf("count = %v coverage = %v, want 200 and 1", res.Rows[0][0], res.Coverage)
	}

	// With the forward gone the partition is unreachable: the error names
	// the region for routing and keeps ErrNotServing for errors.Is.
	toNode.DropPartition(shard, core.PartitionName("fact", 0))
	_, err = d.QueryJoin("east", "fact", "apps", q, 0)
	if !errors.Is(err, ErrRegionUnavailable) || !errors.Is(err, ErrNotServing) {
		t.Fatalf("join with no owner = %v, want ErrRegionUnavailable wrapping ErrNotServing", err)
	}
}

func TestReplayReplicatedAfterRejoin(t *testing.T) {
	d := setupJoin(t)
	host := d.Fleet.Region("east")[0]
	node, _ := d.Node(host.Name)
	// Host dies and loses all state.
	host.SetState(cluster.Down)
	node.Reset()
	if _, err := node.ReplicatedStore("apps"); err == nil {
		t.Fatal("Reset did not clear replicas")
	}
	// Rejoin: replay rebuilds the replica.
	host.SetState(cluster.Up)
	if err := d.ReplayReplicated(host.Name); err != nil {
		t.Fatal(err)
	}
	st, err := node.ReplicatedStore("apps")
	if err != nil || st.Rows() != 20 {
		t.Fatalf("replayed replica = %v rows, %v", st, err)
	}
}

func TestLoadReplicatedValidation(t *testing.T) {
	d := testDeployment(t)
	d.CreateTable("sharded", smallSchema())
	if err := d.LoadReplicated("sharded", [][]uint32{{1, 1}}, [][]float64{{1}}); !errors.Is(err, ErrNotReplicated) {
		t.Fatalf("LoadReplicated on sharded table = %v", err)
	}
	if err := d.LoadReplicated("ghost", nil, nil); !errors.Is(err, ErrNoTable) {
		t.Fatalf("LoadReplicated on unknown table = %v", err)
	}
	d.CreateReplicatedTable("r", dimTableSchema())
	if err := d.LoadReplicated("r", [][]uint32{{1, 1}}, nil); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

func TestInferJoin(t *testing.T) {
	fact := smallSchema()   // dims: ds, app
	dim := dimTableSchema() // dims: app, team
	q := &engine.Query{
		Aggregates: []engine.Aggregate{{Func: engine.Count}},
		GroupBy:    []string{"team"},
	}
	join, err := InferJoin(fact, dim, "apps", q)
	if err != nil {
		t.Fatal(err)
	}
	if join.On != "app" || len(join.Attrs) != 1 || join.Attrs[0] != "team" {
		t.Fatalf("inferred join = %+v", join)
	}
	// No shared key.
	noKey := brick.Schema{Dimensions: []brick.Dimension{{Name: "other", Max: 4, Buckets: 2}}}
	if _, err := InferJoin(fact, noKey, "x", q); err == nil {
		t.Fatal("join without shared key accepted")
	}
	// Ambiguous key (two shared columns).
	ambig := brick.Schema{Dimensions: []brick.Dimension{
		{Name: "ds", Max: 30, Buckets: 6}, {Name: "app", Max: 20, Buckets: 4},
	}}
	if _, err := InferJoin(fact, ambig, "x", q); err == nil {
		t.Fatal("ambiguous join key accepted")
	}
	// Semi-join: no attrs referenced — falls back to a non-key attribute.
	semiQ := &engine.Query{Aggregates: []engine.Aggregate{{Func: engine.Count}}}
	join, err = InferJoin(fact, dim, "apps", semiQ)
	if err != nil || len(join.Attrs) == 0 {
		t.Fatalf("semi-join inference = %+v, %v", join, err)
	}
}

func TestDropReplicatedTable(t *testing.T) {
	d := setupJoin(t)
	if err := d.DropTable("apps"); err != nil {
		t.Fatal(err)
	}
	q := &engine.Query{Aggregates: []engine.Aggregate{{Func: engine.Count}}}
	if _, err := d.QueryJoin("east", "fact", "apps", q, 0); !errors.Is(err, ErrNoTable) {
		t.Fatalf("join after drop = %v", err)
	}
	// Sharded tables unaffected.
	if _, err := d.Query("east", "fact", q, 0); err != nil {
		t.Fatal(err)
	}
}
