package cubrick_test

import (
	"context"
	"testing"
	"time"

	cubrick "cubrick"
	"cubrick/internal/engine"
)

func TestQueryStructAndSettle(t *testing.T) {
	db := openDB(t)
	if err := db.CreateTable("m", demoSchema()); err != nil {
		t.Fatal(err)
	}
	if err := db.Load("m", [][]uint32{{1, 2}, {3, 4}}, [][]float64{{10}, {20}}); err != nil {
		t.Fatal(err)
	}
	q := &engine.Query{Aggregates: []engine.Aggregate{{Func: engine.Max, Metric: "value", Alias: "peak"}}}
	res, err := db.QueryStruct(context.Background(), "m", q)
	if err != nil || res.Rows[0][0] != 20 {
		t.Fatalf("QueryStruct = %v, %v", res, err)
	}
	// Settle advances simulated time and sweeps heartbeats.
	before := db.Deployment().Clock.Now()
	db.Deployment().Settle()
	if !db.Deployment().Clock.Now().After(before) {
		t.Fatal("Settle did not advance time")
	}
}

func TestFacadeOpenErrors(t *testing.T) {
	cfg := cubrick.Defaults()
	cfg.Deployment.Regions = nil
	if _, err := cubrick.Open(cfg); err == nil {
		t.Fatal("Open with no regions succeeded")
	}
}

func TestFacadeRepartitionErrors(t *testing.T) {
	db := openDB(t)
	if _, err := db.Repartition("ghost"); err == nil {
		t.Fatal("Repartition of unknown table succeeded")
	}
}

func TestAdvanceDrivesHeartbeats(t *testing.T) {
	db := openDB(t)
	db.CreateTable("m", demoSchema())
	// Many TTLs pass; with Advance sweeping and agents beating, nothing
	// should be failed over and the system keeps serving.
	for i := 0; i < 30; i++ {
		db.Advance(10 * time.Second)
	}
	db.Load("m", [][]uint32{{1, 1}}, [][]float64{{1}})
	if _, err := db.Query(context.Background(), "SELECT COUNT(*) FROM m"); err != nil {
		t.Fatalf("query after long idle: %v", err)
	}
}
