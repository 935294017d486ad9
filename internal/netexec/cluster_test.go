package netexec

import (
	"context"
	"net/http/httptest"
	"testing"

	"cubrick/internal/engine"
	"cubrick/internal/partition"
)

// startWorkers boots n HTTP workers and returns their URLs plus a cleanup.
func startWorkers(t *testing.T, n int) ([]string, func()) {
	t.Helper()
	var urls []string
	var servers []*httptest.Server
	for i := 0; i < n; i++ {
		srv := httptest.NewServer(NewWorker(partition.Config{}).Handler())
		servers = append(servers, srv)
		urls = append(urls, srv.URL)
	}
	return urls, func() {
		for _, s := range servers {
			s.Close()
		}
	}
}

func TestClusterEndToEnd(t *testing.T) {
	urls, cleanup := startWorkers(t, 6)
	defer cleanup()
	c, err := NewCluster(urls, 100000, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.CreateTable(context.Background(), "events", testSchema(), 4); err != nil {
		t.Fatal(err)
	}
	if got := c.Tables()["events"]; got != 4 {
		t.Fatalf("catalog partitions = %d", got)
	}

	n := 1000
	dims := make([][]uint32, n)
	mets := make([][]float64, n)
	var want float64
	for i := 0; i < n; i++ {
		dims[i] = []uint32{uint32(i) % 30, uint32(i) % 20}
		mets[i] = []float64{float64(i)}
		want += float64(i)
	}
	if err := c.Load(context.Background(), "events", dims, mets); err != nil {
		t.Fatal(err)
	}

	q := &engine.Query{Aggregates: []engine.Aggregate{{Func: engine.Sum, Metric: "value", Alias: "total"}}}
	res, err := c.Query(context.Background(), "events", q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0] != want {
		t.Fatalf("networked sum = %v, want %v", res.Rows[0][0], want)
	}
	if res.RowsScanned != int64(n) {
		t.Fatalf("scanned %d, want %d", res.RowsScanned, n)
	}

	// Partial-sharding containment across processes.
	fanout, err := c.Fanout("events")
	if err != nil {
		t.Fatal(err)
	}
	if fanout > 4 {
		t.Fatalf("fanout %d exceeds partition count", fanout)
	}
	if fanout >= 6 {
		t.Fatal("query touches every worker — not partially sharded")
	}

	// Health: all workers up.
	if bad := c.Health(context.Background()); len(bad) != 0 {
		t.Fatalf("unhealthy workers: %v", bad)
	}
}

func TestClusterErrors(t *testing.T) {
	if _, err := NewCluster(nil, 0, nil); err == nil {
		t.Fatal("empty cluster accepted")
	}
	urls, cleanup := startWorkers(t, 2)
	defer cleanup()
	c, _ := NewCluster(urls, 0, nil)
	if err := c.CreateTable(context.Background(), "bad#name", testSchema(), 2); err == nil {
		t.Fatal("reserved table name accepted")
	}
	if err := c.CreateTable(context.Background(), "t", testSchema(), 2); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateTable(context.Background(), "t", testSchema(), 2); err == nil {
		t.Fatal("duplicate table accepted")
	}
	if err := c.Load(context.Background(), "ghost", nil, nil); err == nil {
		t.Fatal("load into unknown table accepted")
	}
	if err := c.Load(context.Background(), "t", [][]uint32{{1, 1}}, nil); err == nil {
		t.Fatal("length mismatch accepted")
	}
	q := &engine.Query{Aggregates: []engine.Aggregate{{Func: engine.Count}}}
	if _, err := c.Query(context.Background(), "ghost", q); err == nil {
		t.Fatal("query on unknown table accepted")
	}
}

func TestClusterHealthDetectsDeadWorker(t *testing.T) {
	urls, cleanup := startWorkers(t, 3)
	c, _ := NewCluster(urls, 0, nil)
	cleanup() // kill everything
	bad := c.Health(context.Background())
	if len(bad) != 3 {
		t.Fatalf("Health reported %d unhealthy, want 3", len(bad))
	}
}

func TestClusterQueryFailsWhenWorkerDies(t *testing.T) {
	urls, cleanup := startWorkers(t, 3)
	defer cleanup()
	// An extra worker that will die after table creation.
	dying := httptest.NewServer(NewWorker(partition.Config{}).Handler())
	all := append(urls, dying.URL)
	c, _ := NewCluster(all, 0, nil)
	if err := c.CreateTable(context.Background(), "t", testSchema(), 4); err != nil {
		t.Fatal(err)
	}
	dims := [][]uint32{{1, 1}, {2, 2}, {3, 3}, {4, 4}}
	mets := [][]float64{{1}, {1}, {1}, {1}}
	if err := c.Load(context.Background(), "t", dims, mets); err != nil {
		t.Fatal(err)
	}
	dying.Close()
	q := &engine.Query{Aggregates: []engine.Aggregate{{Func: engine.Count}}}
	if _, err := c.Query(context.Background(), "t", q); err == nil {
		t.Skip("no partition landed on the dying worker in this layout")
	}
}
