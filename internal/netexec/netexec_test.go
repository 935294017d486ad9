package netexec

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"cubrick/internal/brick"
	"cubrick/internal/engine"
	"cubrick/internal/oracle"
	"cubrick/internal/partition"
)

func testSchema() brick.Schema {
	return brick.Schema{
		Dimensions: []brick.Dimension{
			{Name: "ds", Max: 30, Buckets: 6},
			{Name: "app", Max: 20, Buckets: 4},
		},
		Metrics: []brick.Metric{{Name: "value"}},
	}
}

// startCluster spins n HTTP workers, each holding one partition of a table
// whose rows are split round-robin. Returns the targets and the expected
// whole-table store for comparison.
func startCluster(t *testing.T, n, rows int) ([]Target, *brick.Store, func()) {
	t.Helper()
	var targets []Target
	var servers []*httptest.Server
	var clients []*Client
	for i := 0; i < n; i++ {
		w := NewWorker(partition.Config{})
		srv := httptest.NewServer(w.Handler())
		servers = append(servers, srv)
		cl := &Client{BaseURL: srv.URL}
		part := "t#" + string(rune('0'+i))
		if err := cl.CreatePartition(context.Background(), part, testSchema()); err != nil {
			t.Fatal(err)
		}
		clients = append(clients, cl)
		targets = append(targets, Target{URL: srv.URL, Partition: part})
	}
	whole, _ := brick.NewStore(testSchema())
	dimsPer := make([][][]uint32, n)
	metsPer := make([][][]float64, n)
	for i := 0; i < rows; i++ {
		dims := []uint32{uint32(i) % 30, uint32(i) % 20}
		mets := []float64{float64(i)}
		whole.Insert(dims, mets)
		w := i % n
		dimsPer[w] = append(dimsPer[w], dims)
		metsPer[w] = append(metsPer[w], mets)
	}
	for i := range clients {
		if _, err := clients[i].Load(context.Background(), targets[i].Partition, dimsPer[i], metsPer[i]); err != nil {
			t.Fatal(err)
		}
	}
	cleanup := func() {
		for _, s := range servers {
			s.Close()
		}
	}
	return targets, whole, cleanup
}

// TestDistributedJoin: a star join travels in the /partial body. Each
// worker serves its fact partition and a replica of the dimension table
// under the table's plain name, and the coordinator's merge of their
// joined answers equals the row-at-a-time join over the whole table. A
// join table a worker does not serve fails the call with its 404, which
// stays partition.ErrNoPartition across the wire.
func TestDistributedJoin(t *testing.T) {
	targets, whole, cleanup := startCluster(t, 3, 600)
	defer cleanup()
	dimSchema := brick.Schema{Dimensions: []brick.Dimension{{Name: "app", Max: 20, Buckets: 4}, {Name: "team", Max: 4, Buckets: 4}}}
	dim, _ := brick.NewStore(dimSchema)
	var dims [][]uint32
	for app := uint32(0); app < 15; app++ { // apps 15..19 go unmatched
		dims = append(dims, []uint32{app, app % 4})
		if err := dim.Insert(dims[app], nil); err != nil {
			t.Fatal(err)
		}
	}
	for _, tg := range targets {
		cl := &Client{BaseURL: tg.URL}
		if err := cl.CreatePartition(context.Background(), "apps", dimSchema); err != nil {
			t.Fatal(err)
		}
		if _, err := cl.Load(context.Background(), "apps", dims, make([][]float64, len(dims))); err != nil {
			t.Fatal(err)
		}
	}
	q := &engine.Query{
		Aggregates: []engine.Aggregate{{Func: engine.Sum, Metric: "value"}, {Func: engine.Count}, {Func: engine.CountDistinct, Metric: "app"}},
		GroupBy:    []string{"team"},
		Filter:     map[string][2]uint32{"ds": {0, 19}, "team": {1, 3}},
		Join:       &engine.JoinSpec{Table: "apps", On: "app", Attrs: []string{"team"}},
	}
	got, err := (&Coordinator{}).Query(context.Background(), targets, q)
	if err != nil {
		t.Fatal(err)
	}
	want, err := oracle.RunJoin(q, dim, whole)
	if err != nil {
		t.Fatal(err)
	}
	queryEqual(t, got, want)
	if len(got.Rows) != 3 {
		t.Fatalf("%d teams, want 3", len(got.Rows))
	}
	ghost := *q
	ghost.Join = &engine.JoinSpec{Table: "ghost", On: "app", Attrs: []string{"team"}}
	if _, err := (&Coordinator{}).Query(context.Background(), targets, &ghost); !errors.Is(err, partition.ErrNoPartition) {
		t.Fatalf("join against an unserved table = %v, want partition.ErrNoPartition", err)
	}
}

func TestDistributedQueryEqualsLocal(t *testing.T) {
	targets, whole, cleanup := startCluster(t, 4, 1000)
	defer cleanup()
	q := &engine.Query{
		Aggregates: []engine.Aggregate{
			{Func: engine.Sum, Metric: "value"},
			{Func: engine.Avg, Metric: "value"},
			{Func: engine.Count},
		},
		GroupBy: []string{"app"},
		Filter:  map[string][2]uint32{"ds": {0, 14}},
	}
	coord := &Coordinator{}
	got, err := coord.Query(context.Background(), targets, q)
	if err != nil {
		t.Fatal(err)
	}
	want := reference(t, q, whole)
	queryEqual(t, got, want)
	if got.RowsScanned != want.RowsScanned {
		t.Fatalf("rows scanned: %d vs %d", got.RowsScanned, want.RowsScanned)
	}
}

func TestWorkerFailureFailsQuery(t *testing.T) {
	targets, _, cleanup := startCluster(t, 3, 100)
	defer cleanup()
	// Point one target at a dead server.
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	targets[1].URL = dead.URL
	q := &engine.Query{Aggregates: []engine.Aggregate{{Func: engine.Count}}}
	_, err := (&Coordinator{}).Query(context.Background(), targets, q)
	if !errors.Is(err, ErrWorkerFailed) {
		t.Fatalf("query with dead worker = %v, want ErrWorkerFailed", err)
	}
}

func TestUnknownPartitionFailsQuery(t *testing.T) {
	targets, _, cleanup := startCluster(t, 2, 10)
	defer cleanup()
	targets[0].Partition = "ghost"
	q := &engine.Query{Aggregates: []engine.Aggregate{{Func: engine.Count}}}
	if _, err := (&Coordinator{}).Query(context.Background(), targets, q); !errors.Is(err, ErrWorkerFailed) {
		t.Fatalf("query against missing partition = %v", err)
	}
}

func TestContextCancellation(t *testing.T) {
	// A worker that hangs: cancellation must abort the query.
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// The bound keeps server shutdown fast even if the disconnect
		// signal is not delivered to the handler.
		select {
		case <-r.Context().Done():
		case <-time.After(time.Second):
		}
	}))
	defer slow.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	q := &engine.Query{Aggregates: []engine.Aggregate{{Func: engine.Count}}}
	start := time.Now()
	_, err := (&Coordinator{}).Query(ctx, []Target{{URL: slow.URL, Partition: "p"}}, q)
	if err == nil {
		t.Fatal("hung worker did not fail the query")
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("cancellation did not abort promptly")
	}
}

func TestCoordinatorNoTargets(t *testing.T) {
	q := &engine.Query{Aggregates: []engine.Aggregate{{Func: engine.Count}}}
	if _, err := (&Coordinator{}).Query(context.Background(), nil, q); err == nil {
		t.Fatal("empty target list accepted")
	}
}

func TestWorkerAdminErrors(t *testing.T) {
	w := NewWorker(partition.Config{})
	srv := httptest.NewServer(w.Handler())
	defer srv.Close()
	cl := &Client{BaseURL: srv.URL}
	if err := cl.CreatePartition(context.Background(), "p", testSchema()); err != nil {
		t.Fatal(err)
	}
	if err := cl.CreatePartition(context.Background(), "p", testSchema()); !errors.Is(err, ErrWorkerFailed) {
		t.Fatalf("duplicate partition = %v", err)
	}
	if _, err := cl.Load(context.Background(), "ghost", [][]uint32{{1, 1}}, [][]float64{{1}}); !errors.Is(err, ErrWorkerFailed) {
		t.Fatalf("load into missing partition = %v", err)
	}
	// Invalid rows.
	if _, err := cl.Load(context.Background(), "p", [][]uint32{{999, 1}}, [][]float64{{1}}); !errors.Is(err, ErrWorkerFailed) {
		t.Fatalf("out-of-domain row = %v", err)
	}
	// Bad query returns a 4xx that surfaces as a worker failure.
	q := &engine.Query{} // no aggregates: invalid
	if _, err := (&Coordinator{}).Query(context.Background(), []Target{{URL: srv.URL, Partition: "p"}}, q); !errors.Is(err, ErrWorkerFailed) {
		t.Fatalf("invalid query = %v", err)
	}
	// Health endpoint.
	resp, err := http.Get(srv.URL + "/health")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("health = %v, %v", resp, err)
	}
	resp.Body.Close()
	// Workers hold no dictionaries: /dict is the mux's 404.
	resp, err = http.Get(srv.URL + "/dict?partition=p")
	if err != nil || resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/dict = %v, %v; want 404", resp, err)
	}
	resp.Body.Close()
}

func TestSchemaJSONRoundTrip(t *testing.T) {
	s := testSchema()
	s2 := FromSchema(s).ToSchema()
	if len(s2.Dimensions) != len(s.Dimensions) || len(s2.Metrics) != len(s.Metrics) {
		t.Fatalf("round trip lost columns: %+v", s2)
	}
	for i := range s.Dimensions {
		if s2.Dimensions[i] != s.Dimensions[i] {
			t.Fatalf("dimension %d differs", i)
		}
	}
}
