package netexec

import (
	"context"
	"net/http/httptest"
	"testing"

	"cubrick/internal/brick"
	"cubrick/internal/engine"
	"cubrick/internal/metrics"
	"cubrick/internal/oracle"
	"cubrick/internal/partition"
)

// httpWorker spins one HTTP worker holding one partition, returning its
// target, a client and the server's Close.
func httpWorker(t *testing.T, part string) (Target, *Client, func()) {
	t.Helper()
	srv := httptest.NewServer(NewWorker(partition.Config{Metrics: metrics.NewRegistry()}).Handler())
	cl := &Client{BaseURL: srv.URL}
	if err := cl.CreatePartition(context.Background(), part, testSchema()); err != nil {
		t.Fatal(err)
	}
	return Target{URL: srv.URL, Partition: part}, cl, srv.Close
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

// queryEqual fails t unless got's answer equals want's. Partials merge in
// arrival order, so these walls load dyadic metrics: their sums are exact
// in any order.
func queryEqual(t *testing.T, got, want *engine.Result) {
	t.Helper()
	if err := oracle.Equal(oracle.Answer(want), oracle.Answer(got)); err != nil {
		t.Fatal(err)
	}
}

// reference returns the oracle's result for q over the stores.
func reference(t *testing.T, q *engine.Query, stores ...*brick.Store) *engine.Result {
	t.Helper()
	want, err := oracle.Run(q, stores...)
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// TestIngestVisibleInNextAnswer: rows ingested over HTTP at epoch E are in
// the very next coordinator answer — freshness within one epoch, asserted,
// not sampled — and X-Cubrick-Cache: off returns the same answer.
func TestIngestVisibleInNextAnswer(t *testing.T) {
	target, cl, stop := httpWorker(t, "t#0")
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
		Filter: map[string][2]uint32{"ds": {0, 9}},
	}
	coord := &Coordinator{}
	got, err := coord.Query(context.Background(), []Target{target}, q)
	if err != nil {
		t.Fatal(err)
	}
	queryEqual(t, got, reference(t, q, whole))

	loadRows(t, cl, "t#0", whole, [][3]float64{{2, 7, 1000}, {7, 7, 1000}})
	got2, err := coord.Query(context.Background(), []Target{target}, q)
	if err != nil {
		t.Fatal(err)
	}
	want := reference(t, q, whole)
	queryEqual(t, got2, want)
	if got2.Rows[0][0] != got.Rows[0][0]+2000 {
		t.Fatalf("fresh rows missing: %v -> %v", got.Rows[0], got2.Rows[0])
	}

	bypassed, err := coord.Query(WithCacheBypass(context.Background()), []Target{target}, q)
	if err != nil {
		t.Fatal(err)
	}
	queryEqual(t, bypassed, want)
}
