package cubrick_test

import (
	"context"
	"strings"
	"testing"
	"time"

	cubrick "cubrick"
	"cubrick/internal/cluster"
	icubrick "cubrick/internal/cubrick"
)

func demoSchema() cubrick.Schema {
	return cubrick.Schema{
		Dimensions: []cubrick.Dimension{
			{Name: "ds", Max: 30, Buckets: 6},
			{Name: "app", Max: 20, Buckets: 4},
		},
		Metrics: []cubrick.Metric{{Name: "value"}},
	}
}

func openDB(t *testing.T) *cubrick.DB {
	t.Helper()
	cfg := cubrick.Defaults()
	cfg.Deployment.Policy.InitialPartitions = 4
	cfg.Deployment.Transport.RequestFailureProb = 0
	db, err := cubrick.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestPublicAPILifecycle(t *testing.T) {
	db := openDB(t)
	if err := db.CreateTable("metrics", demoSchema()); err != nil {
		t.Fatal(err)
	}
	tables := db.Tables()
	if len(tables) != 1 || tables[0].Name != "metrics" || tables[0].Partitions != 4 {
		t.Fatalf("Tables = %+v", tables)
	}
	schema, err := db.Describe("metrics")
	if err != nil || len(schema.Dimensions) != 2 {
		t.Fatalf("Describe = %+v, %v", schema, err)
	}

	n := 100
	dims := make([][]uint32, n)
	mets := make([][]float64, n)
	var want float64
	for i := 0; i < n; i++ {
		dims[i] = []uint32{uint32(i) % 30, uint32(i) % 20}
		mets[i] = []float64{float64(i)}
		want += float64(i)
	}
	if err := db.Load("metrics", dims, mets); err != nil {
		t.Fatal(err)
	}

	res, err := db.Query(context.Background(), "SELECT SUM(value) AS total FROM metrics")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0] != want {
		t.Fatalf("sum = %v, want %v", res.Rows[0][0], want)
	}
	if res.Columns[0] != "total" {
		t.Fatalf("columns = %v", res.Columns)
	}

	res, err = db.Query(context.Background(), "SELECT app, COUNT(*) FROM metrics WHERE ds < 10 GROUP BY app ORDER BY count(*) DESC LIMIT 3")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("limited rows = %d", len(res.Rows))
	}

	if err := db.DropTable("metrics"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query(context.Background(), "SELECT SUM(value) FROM metrics"); err == nil {
		t.Fatal("query after drop succeeded")
	}
}

func TestPublicAPIQueryErrors(t *testing.T) {
	db := openDB(t)
	if _, err := db.Query(context.Background(), "nonsense"); err == nil {
		t.Fatal("bad CQL accepted")
	}
	if _, err := db.Query(context.Background(), "SHOW TABLES"); err == nil {
		t.Fatal("non-SELECT accepted by Query")
	}
}

func TestPublicAPIFailoverTransparency(t *testing.T) {
	db := openDB(t)
	db.CreateTable("m", demoSchema())
	dims := [][]uint32{{1, 1}, {2, 2}}
	mets := [][]float64{{10}, {20}}
	db.Load("m", dims, mets)

	// Kill the host serving partition 0 in the first region; the proxy
	// must answer from another region without the caller noticing.
	dep := db.Deployment()
	shard := dep.Catalog.ShardOf("m", 0)
	a, _ := dep.SM.Assignment(icubrick.ServiceName(dep.Config.Regions[0]), shard)
	h, _ := dep.Fleet.Host(a.Primary())
	h.SetState(cluster.Down)

	res, err := db.Query(context.Background(), "SELECT SUM(value) FROM m")
	if err != nil || res.Rows[0][0] != 30 {
		t.Fatalf("query during outage = %v, %v", res, err)
	}
	if db.Proxy().Retries.Value() == 0 {
		t.Fatal("no cross-region retry recorded")
	}

	// Advance time: heartbeats lapse, SM fails over, region heals.
	for i := 0; i < 20; i++ {
		db.Advance(10 * time.Second)
	}
	res, err = db.Query(context.Background(), "SELECT SUM(value) FROM m")
	if err != nil || res.Rows[0][0] != 30 {
		t.Fatalf("query after failover = %v, %v", res, err)
	}
}

func TestPublicAPIRepartition(t *testing.T) {
	cfg := cubrick.Defaults()
	cfg.Deployment.Policy.InitialPartitions = 2
	cfg.Deployment.Policy.MaxPartitionBytes = 1024
	cfg.Deployment.Transport.RequestFailureProb = 0
	db, err := cubrick.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	db.CreateTable("g", demoSchema())
	n := 1000
	dims := make([][]uint32, n)
	mets := make([][]float64, n)
	for i := 0; i < n; i++ {
		dims[i] = []uint32{uint32(i) % 30, uint32(i) % 20}
		mets[i] = []float64{1}
	}
	db.Load("g", dims, mets)
	summary, err := db.Repartition("g")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(summary, "grow:") {
		t.Fatalf("summary = %q", summary)
	}
	res, err := db.Query(context.Background(), "SELECT COUNT(*) FROM g")
	if err != nil || res.Rows[0][0] != float64(n) {
		t.Fatalf("count after repartition = %v, %v", res, err)
	}
	if res.Partitions != 4 {
		t.Fatalf("partitions = %d, want 4", res.Partitions)
	}
}
