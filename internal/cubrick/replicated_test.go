package cubrick

import (
	"context"
	"errors"
	"slices"
	"testing"

	"cubrick/internal/brick"
	"cubrick/internal/cluster"
	"cubrick/internal/core"
	"cubrick/internal/engine"
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

// queryJoin runs a star join the way DB.Query does: ResolveJoin, then an
// ordinary Query.
func queryJoin(d *Deployment, region, fact, dim string, q *engine.Query) (*QueryResult, error) {
	jq, err := d.ResolveJoin(fact, dim, q)
	if err != nil {
		return nil, err
	}
	return d.Query(context.Background(), region, fact, jq, 0)
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
		res, err := queryJoin(d, region, "fact", "apps", q)
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
	res, err := queryJoin(d, "east", "fact", "apps", q)
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
	if _, err := queryJoin(d, "east", "ghost", "apps", q); !errors.Is(err, ErrNoTable) {
		t.Fatalf("unknown fact = %v", err)
	}
	if _, err := queryJoin(d, "east", "fact", "ghost", q); !errors.Is(err, ErrNoTable) {
		t.Fatalf("unknown dim = %v", err)
	}
	// Joining against a sharded table is rejected.
	if _, err := queryJoin(d, "east", "fact", "fact", q); err == nil {
		t.Fatal("join against sharded table accepted")
	}
	// Using a replicated table as the fact side is rejected.
	if _, err := queryJoin(d, "east", "apps", "apps", q); err == nil {
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
	if _, err := queryJoin(d, "east", "fact", "apps", q); !errors.Is(err, ErrRegionUnavailable) {
		t.Fatalf("join with dead host = %v, want ErrRegionUnavailable", err)
	}
	if res, err := queryJoin(d, "west", "fact", "apps", q); err != nil || res.Rows[0][0] != 200 {
		t.Fatalf("west join = %v, %v", res, err)
	}
}

// TestQueryJoinFailsWithoutOwner: a join that resolves a partition to a
// host that no longer serves it fails the region, and the failure keeps
// its cause matchable: ErrRegionUnavailable for the proxy's routing,
// ErrNotServing for errors.Is.
func TestQueryJoinFailsWithoutOwner(t *testing.T) {
	d := setupJoin(t)
	shard := d.Catalog.ShardOf("fact", 0)
	a, _ := d.SM.Assignment(ServiceName("east"), shard)
	owner, _ := d.Node(a.Primary())
	owner.DropPartition(shard, core.PartitionName("fact", 0))

	q := &engine.Query{Aggregates: []engine.Aggregate{{Func: engine.Count}}}
	_, err := queryJoin(d, "east", "fact", "apps", q)
	if !errors.Is(err, ErrRegionUnavailable) || !errors.Is(err, ErrNotServing) {
		t.Fatalf("join with no owner = %v, want ErrRegionUnavailable wrapping ErrNotServing", err)
	}
}

// TestQueryFailsWithoutOwner: a plain query keeps the same cause as a join
// when a partition's host no longer serves it — the worker's 404 matches
// ErrNotServing across the in-memory wire.
func TestQueryFailsWithoutOwner(t *testing.T) {
	d := setupJoin(t)
	shard := d.Catalog.ShardOf("fact", 0)
	a, _ := d.SM.Assignment(ServiceName("east"), shard)
	owner, _ := d.Node(a.Primary())
	owner.DropPartition(shard, core.PartitionName("fact", 0))

	q := &engine.Query{Aggregates: []engine.Aggregate{{Func: engine.Count}}}
	_, err := d.Query(context.Background(), "east", "fact", q, 0)
	if !errors.Is(err, ErrRegionUnavailable) || !errors.Is(err, ErrNotServing) {
		t.Fatalf("query with no owner = %v, want ErrRegionUnavailable wrapping ErrNotServing", err)
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
	join, err := InferJoin(fact, dim, "apps")
	if err != nil {
		t.Fatal(err)
	}
	if join.On != "app" || len(join.Attrs) != 1 || join.Attrs[0] != "team" {
		t.Fatalf("inferred join = %+v", join)
	}
	// Every column but the key is an attribute, in schema order.
	wide := brick.Schema{Dimensions: []brick.Dimension{
		{Name: "tier", Max: 3, Buckets: 3}, {Name: "app", Max: 20, Buckets: 4}, {Name: "team", Max: 4, Buckets: 4},
	}}
	if join, err = InferJoin(fact, wide, "apps"); err != nil || join.On != "app" || !slices.Equal(join.Attrs, []string{"tier", "team"}) {
		t.Fatalf("inferred join over three columns = %+v, %v", join, err)
	}
	// No shared key.
	noKey := brick.Schema{Dimensions: []brick.Dimension{{Name: "other", Max: 4, Buckets: 2}}}
	if _, err := InferJoin(fact, noKey, "x"); err == nil {
		t.Fatal("join without shared key accepted")
	}
	// Ambiguous key (two shared columns).
	ambig := brick.Schema{Dimensions: []brick.Dimension{
		{Name: "ds", Max: 30, Buckets: 6}, {Name: "app", Max: 20, Buckets: 4},
	}}
	if _, err := InferJoin(fact, ambig, "x"); err == nil {
		t.Fatal("ambiguous join key accepted")
	}
	// A dimension table of the key alone has nothing to join.
	keyOnly := brick.Schema{Dimensions: []brick.Dimension{{Name: "app", Max: 20, Buckets: 4}}}
	if _, err := InferJoin(fact, keyOnly, "x"); err == nil {
		t.Fatal("key-only dimension table accepted")
	}
}

func TestDropReplicatedTable(t *testing.T) {
	d := setupJoin(t)
	if err := d.DropTable("apps"); err != nil {
		t.Fatal(err)
	}
	q := &engine.Query{Aggregates: []engine.Aggregate{{Func: engine.Count}}}
	if _, err := queryJoin(d, "east", "fact", "apps", q); !errors.Is(err, ErrNoTable) {
		t.Fatalf("join after drop = %v", err)
	}
	// Sharded tables unaffected.
	if _, err := d.Query(context.Background(), "east", "fact", q, 0); err != nil {
		t.Fatal(err)
	}
}
