package migrate

import (
	"context"
	"math/rand"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cubrick/internal/core"
	"cubrick/internal/engine"
	"cubrick/internal/netexec"
	"cubrick/internal/partition"
	"cubrick/internal/zk"
)

// startCluster boots n workers and a cluster over them.
func startCluster(t *testing.T, n int) (*netexec.Cluster, []string) {
	t.Helper()
	var urls []string
	for i := 0; i < n; i++ {
		srv := httptest.NewServer(netexec.NewWorker(partition.Config{}).Handler())
		t.Cleanup(srv.Close)
		urls = append(urls, srv.URL)
	}
	c, err := netexec.NewCluster(urls, 64, nil)
	if err != nil {
		t.Fatal(err)
	}
	return c, urls
}

// batch returns deterministic rows for batch i. Metric values are small
// integers so sums are exact in float64 no matter the merge order — the
// scenario's bit-identical comparison depends on it.
func batch(i, rows int) (dims [][]uint32, mets [][]float64) {
	dims = make([][]uint32, rows)
	mets = make([][]float64, rows)
	for j := 0; j < rows; j++ {
		k := i*rows + j
		dims[j] = []uint32{uint32(k) % 30, uint32(k) % 20}
		mets[j] = []float64{float64(k % 97)}
	}
	return dims, mets
}

// TestScaleOutScenario is the ROADMAP scale-out closer: a loaded cluster
// gains a worker; two partitions migrate onto it while ingest keeps
// landing and a zipf query replay runs against the moving cluster. The
// bar: zero failed queries during the move, final results bit-identical
// to a static cluster fed the same rows, and the joiner ends up owning
// the moved partitions.
func TestScaleOutScenario(t *testing.T) {
	const partitions = 6
	moving, _ := startCluster(t, 3)
	static, _ := startCluster(t, 3)

	ctx := context.Background()
	for _, c := range []*netexec.Cluster{moving, static} {
		if err := c.CreateTable(ctx, "events", testSchema(), partitions); err != nil {
			t.Fatal(err)
		}
	}

	// The joiner starts empty: placement of existing partitions is
	// untouched until an explicit migration moves load onto it.
	joiner := httptest.NewServer(netexec.NewWorker(partition.Config{}).Handler())
	t.Cleanup(joiner.Close)
	if !moving.AddWorker(joiner.URL) {
		t.Fatal("joiner not added")
	}

	var (
		migrationsDone atomic.Bool
		ingestDone     atomic.Bool
		queryFailures  atomic.Int64
		firstFailure   atomic.Value
		batches        atomic.Int64
	)

	var wg sync.WaitGroup
	// Ingest: identical batches stream into both clusters until the
	// migrations have finished (minimum 30 batches so the moved
	// partitions have real volume, cap 500 as a runaway stop).
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer ingestDone.Store(true)
		for i := 0; i < 500; i++ {
			if i >= 30 && migrationsDone.Load() {
				return
			}
			dims, mets := batch(i, 60)
			if err := moving.Load(ctx, "events", dims, mets); err != nil {
				t.Errorf("ingest into moving cluster failed: %v", err)
				return
			}
			if err := static.Load(ctx, "events", dims, mets); err != nil {
				t.Errorf("ingest into static cluster failed: %v", err)
				return
			}
			batches.Add(1)
			time.Sleep(2 * time.Millisecond)
		}
	}()

	// Zipf query replay against the moving cluster: hot keys dominate,
	// as the paper's workloads do. Any error is a failed query.
	wg.Add(1)
	go func() {
		defer wg.Done()
		zrnd := rand.New(rand.NewSource(7))
		zipf := rand.NewZipf(zrnd, 1.2, 1, 19)
		for !ingestDone.Load() {
			app := uint32(zipf.Uint64())
			q := &engine.Query{
				Aggregates: []engine.Aggregate{{Func: engine.Sum, Metric: "value", Alias: "total"}},
				GroupBy:    []string{"ds"},
				Filter:     map[string][2]uint32{"app": {app, app}},
			}
			if _, err := moving.Query(ctx, "events", q); err != nil {
				queryFailures.Add(1)
				firstFailure.CompareAndSwap(nil, err.Error())
			}
			time.Sleep(time.Millisecond)
		}
	}()

	// Migrate two partitions onto the joiner while all of that runs.
	drv := &Driver{
		ZK:     zk.NewStore(nil),
		Router: moving,
		Config: Config{
			StepTimeout:      10 * time.Second,
			CutoverPause:     time.Second,
			DualReadWindow:   50 * time.Millisecond,
			MaxCatchupRounds: 6,
		},
	}
	time.Sleep(20 * time.Millisecond) // let load/queries get going
	movedParts := []int{0, 3}
	var records []*Record
	for _, p := range movedParts {
		urls, _, err := moving.PartitionPlacement("events", p)
		if err != nil {
			t.Fatal(err)
		}
		part := core.PartitionName("events", p)
		rec, err := drv.Start(ctx, &Record{
			Service:   "events",
			Shard:     int64(p),
			Partition: part,
			Source:    urls[0],
			Target:    joiner.URL,
		})
		if err != nil {
			t.Fatalf("migrating %s: %v", part, err)
		}
		records = append(records, rec)
	}
	migrationsDone.Store(true)
	wg.Wait()

	if n := queryFailures.Load(); n != 0 {
		t.Fatalf("%d queries failed during scale-out (first: %v)", n, firstFailure.Load())
	}

	// The joiner owns the moved partitions now.
	for _, p := range movedParts {
		urls, _, err := moving.PartitionPlacement("events", p)
		if err != nil {
			t.Fatal(err)
		}
		if len(urls) != 1 || urls[0] != joiner.URL {
			t.Fatalf("partition %d placement = %v, want joiner", p, urls)
		}
	}

	// Quiesce past the dual-read window, then the bit-identical bar:
	// the rebalanced cluster and the static twin must agree exactly.
	time.Sleep(60 * time.Millisecond)
	queries := []*engine.Query{
		{Aggregates: []engine.Aggregate{
			{Func: engine.Sum, Metric: "value", Alias: "total"},
			{Func: engine.Count, Alias: "n"},
		}},
		{Aggregates: []engine.Aggregate{{Func: engine.Sum, Metric: "value", Alias: "total"}},
			GroupBy: []string{"ds"}},
		{Aggregates: []engine.Aggregate{{Func: engine.Count, Alias: "n"}},
			GroupBy: []string{"app"},
			Filter:  map[string][2]uint32{"ds": {5, 25}}},
	}
	for qi, q := range queries {
		got, err := moving.Query(ctx, "events", q)
		if err != nil {
			t.Fatalf("query %d on rebalanced cluster: %v", qi, err)
		}
		want, err := static.Query(ctx, "events", q)
		if err != nil {
			t.Fatalf("query %d on static cluster: %v", qi, err)
		}
		if len(got.Rows) != len(want.Rows) {
			t.Fatalf("query %d: %d rows vs %d on static", qi, len(got.Rows), len(want.Rows))
		}
		for i := range want.Rows {
			for j := range want.Rows[i] {
				if got.Rows[i][j] != want.Rows[i][j] {
					t.Fatalf("query %d row %d col %d: %v != %v (not bit-identical)",
						qi, i, j, got.Rows[i][j], want.Rows[i][j])
				}
			}
		}
		if got.RowsScanned != want.RowsScanned {
			t.Fatalf("query %d scanned %d vs %d rows", qi, got.RowsScanned, want.RowsScanned)
		}
	}

	// The unavailability window stayed inside the cutover pause budget.
	for _, rec := range records {
		if w := rec.UnavailableFor(); w <= 0 || w > drv.Config.CutoverPause+drv.Config.StepTimeout {
			t.Fatalf("unavailability window %v out of budget for %s", w, rec.Partition)
		}
		if rec.MovedBytes <= 0 || rec.MovedRows <= 0 {
			t.Fatalf("move accounting empty: %+v", rec)
		}
	}
	t.Logf("scale-out: %d batches ingested, moved %s in %v and %s in %v",
		batches.Load(),
		records[0].Partition, records[0].UnavailableFor(),
		records[1].Partition, records[1].UnavailableFor())
}
