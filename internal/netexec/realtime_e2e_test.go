package netexec

import (
	"context"
	"net/http/httptest"
	"testing"

	"cubrick/internal/brick"
	"cubrick/internal/engine"
	"cubrick/internal/metrics"
	"cubrick/internal/partition"
)

// realtimeWorker spins one HTTP worker (optionally rollup-enabled) holding
// one partition, returning its target, its metrics registry and a client.
func realtimeWorker(t *testing.T, part string, rollup bool) (Target, *metrics.Registry, *Client, func()) {
	t.Helper()
	cfg := partition.Config{Metrics: metrics.NewRegistry()}
	if rollup {
		cfg.RollupTimeDim = "ds"
		cfg.RollupBucket = 5
		cfg.RollupDistinct = []string{"app"}
	}
	srv := httptest.NewServer(NewWorker(cfg).Handler())
	cl := &Client{BaseURL: srv.URL}
	if err := cl.CreatePartition(context.Background(), part, testSchema()); err != nil {
		t.Fatal(err)
	}
	return Target{URL: srv.URL, Partition: part}, cfg.Metrics, cl, srv.Close
}

func loadRows(t *testing.T, cl *Client, part string, whole *brick.Store, rows [][3]float64) {
	t.Helper()
	var dims [][]uint32
	var mets [][]float64
	for _, r := range rows {
		d := []uint32{uint32(r[0]), uint32(r[1])}
		m := []float64{r[2]}
		dims = append(dims, d)
		mets = append(mets, m)
		if whole != nil {
			if err := whole.Insert(d, m); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := cl.Load(context.Background(), part, dims, mets); err != nil {
		t.Fatal(err)
	}
}

func queryEqual(t *testing.T, got, want *engine.Result) {
	t.Helper()
	if len(got.Rows) != len(want.Rows) {
		t.Fatalf("rows: got %d want %d\ngot %v\nwant %v", len(got.Rows), len(want.Rows), got.Rows, want.Rows)
	}
	for i := range want.Rows {
		for j := range want.Rows[i] {
			if got.Rows[i][j] != want.Rows[i][j] {
				t.Fatalf("row %d col %d: got %v want %v", i, j, got.Rows[i][j], want.Rows[i][j])
			}
		}
	}
}

// TestRollupServedPartialFreshness: a rollup-enabled worker answers an
// aligned dashboard query from its pre-aggregates, and rows ingested at
// epoch E are reflected in the very next rollup-served answer — freshness
// within one epoch, asserted, not sampled.
func TestRollupServedPartialFreshness(t *testing.T) {
	target, reg, cl, stop := realtimeWorker(t, "t#0", true)
	defer stop()
	whole, _ := brick.NewStore(testSchema())
	var rows [][3]float64
	for i := 0; i < 300; i++ {
		rows = append(rows, [3]float64{float64(i % 30), float64(i % 20), float64(i)})
	}
	loadRows(t, cl, "t#0", whole, rows)
	q := &engine.Query{
		Aggregates: []engine.Aggregate{
			{Func: engine.Sum, Metric: "value"},
			{Func: engine.Count},
			{Func: engine.CountDistinct, Metric: "app"},
		},
		Filter: map[string][2]uint32{"ds": {0, 9}}, // two whole 5-buckets
	}
	coord := &Coordinator{}
	got, err := coord.Query(context.Background(), []Target{target}, q)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := engine.Execute(whole, q)
	if err != nil {
		t.Fatal(err)
	}
	queryEqual(t, got, ref.Finalize())
	c := reg.CounterValues()
	if c["worker.rollup.hits"] != 1 {
		t.Fatalf("expected a rollup hit, counters: %v", c)
	}

	// Fresh ingest, then query again immediately: the rollup-served
	// answer must include every row of the new epoch.
	loadRows(t, cl, "t#0", whole, [][3]float64{{2, 7, 1000}, {7, 7, 1000}})
	got2, err := coord.Query(context.Background(), []Target{target}, q)
	if err != nil {
		t.Fatal(err)
	}
	ref2, err := engine.Execute(whole, q)
	if err != nil {
		t.Fatal(err)
	}
	queryEqual(t, got2, ref2.Finalize())
	if got2.Rows[0][0] != got.Rows[0][0]+2000 {
		t.Fatalf("fresh rows missing: %v -> %v", got.Rows[0], got2.Rows[0])
	}
	c = reg.CounterValues()
	if c["worker.rollup.hits"] != 2 {
		t.Fatalf("second query not rollup-served: %v", c)
	}
	if c["worker.rollup.errors"] != 0 {
		t.Fatalf("rollup errors: %v", c)
	}

	// An unaligned window still answers exactly (hybrid edge scans), and
	// X-Cubrick-Cache: off bypasses the rollup entirely.
	q2 := &engine.Query{
		Aggregates: []engine.Aggregate{{Func: engine.Sum, Metric: "value"}},
		Filter:     map[string][2]uint32{"ds": {2, 13}},
	}
	got3, err := coord.Query(context.Background(), []Target{target}, q2)
	if err != nil {
		t.Fatal(err)
	}
	ref3, err := engine.Execute(whole, q2)
	if err != nil {
		t.Fatal(err)
	}
	queryEqual(t, got3, ref3.Finalize())
	hitsBefore := reg.CounterValues()["worker.rollup.hits"]
	got4, err := coord.Query(WithCacheBypass(context.Background()), []Target{target}, q2)
	if err != nil {
		t.Fatal(err)
	}
	queryEqual(t, got4, ref3.Finalize())
	if reg.CounterValues()["worker.rollup.hits"] != hitsBefore {
		t.Fatal("cache bypass still hit the rollup")
	}
}
