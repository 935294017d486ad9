package cubrick_test

import (
	"context"
	"testing"

	cubrick "cubrick"
	"cubrick/internal/cluster"
	icubrick "cubrick/internal/cubrick"
)

// setupStarSchema loads a fact table (value = app per (ds, app) pair) and a
// replicated app -> team dimension table through the public API.
func setupStarSchema(t *testing.T) *cubrick.DB {
	t.Helper()
	db := openDB(t)
	if err := db.CreateTable("fact", demoSchema()); err != nil {
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
	if err := db.Load("fact", fdims, fmets); err != nil {
		t.Fatal(err)
	}
	dimSchema := cubrick.Schema{
		Dimensions: []cubrick.Dimension{
			{Name: "app", Max: 20, Buckets: 4},
			{Name: "team", Max: 4, Buckets: 4},
		},
	}
	if err := db.CreateReplicatedTable("apps", dimSchema); err != nil {
		t.Fatal(err)
	}
	var ddims [][]uint32
	var dmets [][]float64
	for app := uint32(0); app < 20; app++ {
		ddims = append(ddims, []uint32{app, app % 4})
		dmets = append(dmets, nil)
	}
	if err := db.LoadReplicated("apps", ddims, dmets); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestPublicJoinQuery(t *testing.T) {
	db := setupStarSchema(t)
	res, err := db.Query(context.Background(), "SELECT team, SUM(value) AS total FROM fact JOIN apps ON app GROUP BY team ORDER BY total DESC")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("teams = %d", len(res.Rows))
	}
	// Descending totals: total(team k) = 10*(5k+40), so team 3 first.
	if res.Rows[0][0] != 3 {
		t.Fatalf("top team = %v, want 3", res.Rows[0][0])
	}
	if res.Rows[0][1] != 550 {
		t.Fatalf("top total = %v, want 550", res.Rows[0][1])
	}
}

func TestPublicJoinSurvivesRegionFailure(t *testing.T) {
	db := setupStarSchema(t)
	dep := db.Deployment()
	shard := dep.Catalog.ShardOf("fact", 0)
	a, _ := dep.SM.Assignment(icubrick.ServiceName(dep.Config.Regions[0]), shard)
	h, _ := dep.Fleet.Host(a.Primary())
	h.SetState(cluster.Down)

	res, err := db.Query(context.Background(), "SELECT COUNT(*) FROM fact JOIN apps WHERE team = 1")
	if err != nil {
		t.Fatalf("join during outage: %v", err)
	}
	if res.Rows[0][0] != 50 {
		t.Fatalf("count = %v, want 50", res.Rows[0][0])
	}
	if res.Region == dep.Config.Regions[0] {
		t.Fatal("answered from the dead region")
	}
}
