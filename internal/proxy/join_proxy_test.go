package proxy

import (
	"context"
	"testing"

	"cubrick/internal/brick"
	"cubrick/internal/cluster"
	"cubrick/internal/cubrick"
	"cubrick/internal/engine"
	"cubrick/internal/randutil"
)

func setupJoinProxy(t *testing.T) (*cubrick.Deployment, *Proxy) {
	t.Helper()
	d, p, _ := setup(t)
	dimSchema := brick.Schema{
		Dimensions: []brick.Dimension{
			{Name: "app", Max: 20, Buckets: 4},
			{Name: "team", Max: 4, Buckets: 4},
		},
	}
	if _, err := d.CreateReplicatedTable("apps", dimSchema); err != nil {
		t.Fatal(err)
	}
	var dims [][]uint32
	var mets [][]float64
	for app := uint32(0); app < 20; app++ {
		dims = append(dims, []uint32{app, app % 4})
		mets = append(mets, nil)
	}
	if err := d.LoadReplicated("apps", dims, mets); err != nil {
		t.Fatal(err)
	}
	return d, p
}

// queryJoin runs a star join the way DB.Query does: the deployment
// resolves the join, then the proxy runs the joined query.
func queryJoin(d *cubrick.Deployment, p *Proxy, fact, dim string, q *engine.Query) (*cubrick.QueryResult, error) {
	jq, err := d.ResolveJoin(fact, dim, q)
	if err != nil {
		return nil, err
	}
	return p.Query(context.Background(), fact, jq)
}

func TestProxyQueryJoin(t *testing.T) {
	d, p := setupJoinProxy(t)
	q := &engine.Query{
		Aggregates: []engine.Aggregate{{Func: engine.Count, Alias: "n"}},
		GroupBy:    []string{"team"},
	}
	res, err := queryJoin(d, p, "metrics", "apps", q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("teams = %d", len(res.Rows))
	}
	var total float64
	for _, row := range res.Rows {
		total += row[1]
	}
	if total != 200 {
		t.Fatalf("total joined rows = %v, want 200", total)
	}
}

func TestProxyQueryJoinRetriesAcrossRegions(t *testing.T) {
	d, p := setupJoinProxy(t)
	shard := d.Catalog.ShardOf("metrics", 0)
	a, _ := d.SM.Assignment(cubrick.ServiceName(d.Config.Regions[0]), shard)
	h, _ := d.Fleet.Host(a.Primary())
	h.SetState(cluster.Down)
	q := &engine.Query{Aggregates: []engine.Aggregate{{Func: engine.Count, Alias: "n"}}}
	res, err := queryJoin(d, p, "metrics", "apps", q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Region == d.Config.Regions[0] {
		t.Fatal("join ran in the dead region")
	}
	if p.Retries.Value() == 0 {
		t.Fatal("no retry recorded")
	}
}

func TestProxyQueryJoinSemanticErrorFailsFast(t *testing.T) {
	d, p := setupJoinProxy(t)
	q := &engine.Query{Aggregates: []engine.Aggregate{{Func: engine.Count}}}
	if _, err := queryJoin(d, p, "metrics", "ghost", q); err == nil {
		t.Fatal("join against unknown dim table accepted")
	}
	if p.Retries.Value() != 0 {
		t.Fatal("semantic join error caused retries")
	}
}

func TestRandutilPassthroughs(t *testing.T) {
	// Exercise thin wrappers used indirectly elsewhere.
	rnd := randutil.New(1)
	if v := rnd.Intn(10); v < 0 || v >= 10 {
		t.Fatalf("Intn out of range: %d", v)
	}
	if rnd.Int63() < 0 {
		t.Fatal("Int63 negative")
	}
}
