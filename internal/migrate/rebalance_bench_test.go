package migrate

// Rebalance cost benchmark: what a scale-out actually costs. A loaded
// cluster gains an empty worker and three partitions migrate onto it while
// a zipf query replay keeps running; the report compares query p50/p99
// during the migration against steady state and prices the move itself —
// bytes shipped, rows shipped, catch-up rounds, and the measured
// write-unavailability window per partition (fence→flip). Runs only when
// REBALANCE_BENCH_OUT names the JSON file to write (bench.sh sets it to
// BENCH_rebalance.json).

import (
	"context"
	"encoding/json"
	"math/rand"
	"net/http/httptest"
	"os"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"cubrick/internal/core"
	"cubrick/internal/engine"
	"cubrick/internal/netexec"
	"cubrick/internal/partition"
	"cubrick/internal/zk"
)

func quantileMS(lat []time.Duration, q float64) float64 {
	if len(lat) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), lat...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	i := int(q * float64(len(sorted)-1))
	return float64(sorted[i].Microseconds()) / 1000
}

type rebalancePhase struct {
	Queries int     `json:"queries"`
	Failed  int64   `json:"failed"`
	P50ms   float64 `json:"p50_ms"`
	P99ms   float64 `json:"p99_ms"`
}

func TestRebalanceBench(t *testing.T) {
	out := os.Getenv("REBALANCE_BENCH_OUT")
	if out == "" {
		t.Skip("set REBALANCE_BENCH_OUT to run the rebalance benchmark")
	}

	const (
		partitions = 8
		seedRows   = 120_000
		moveCount  = 3
	)
	cluster, _ := startCluster(t, 4)
	ctx := context.Background()
	if err := cluster.CreateTable(ctx, "events", testSchema(), partitions); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < seedRows/1000; i++ {
		dims, mets := batch(i, 1000)
		if err := cluster.Load(ctx, "events", dims, mets); err != nil {
			t.Fatal(err)
		}
	}

	zrnd := rand.New(rand.NewSource(11))
	zipf := rand.NewZipf(zrnd, 1.4, 1, 19)
	runQuery := func() error {
		app := uint32(zipf.Uint64())
		q := &engine.Query{
			Aggregates: []engine.Aggregate{{Func: engine.Sum, Metric: "value", Alias: "total"}},
			GroupBy:    []string{"ds"},
			Filter:     map[string][2]uint32{"app": {app, app}},
		}
		_, err := cluster.Query(ctx, "events", q)
		return err
	}

	// Phase 1: steady state, no migration in flight.
	var steady rebalancePhase
	var steadyLat []time.Duration
	for i := 0; i < 400; i++ {
		start := time.Now()
		if err := runQuery(); err != nil {
			steady.Failed++
		}
		steadyLat = append(steadyLat, time.Since(start))
	}
	steady.Queries = len(steadyLat)
	steady.P50ms = quantileMS(steadyLat, 0.50)
	steady.P99ms = quantileMS(steadyLat, 0.99)

	// Phase 2: a joiner arrives and three partitions migrate onto it while
	// the same replay keeps running from a background goroutine.
	joiner := httptest.NewServer(netexec.NewWorker(partition.Config{}).Handler())
	t.Cleanup(joiner.Close)
	cluster.AddWorker(joiner.URL)
	drv := &Driver{
		ZK:     zk.NewStore(nil),
		Router: cluster,
		Config: Config{
			CutoverPause:   time.Second,
			DualReadWindow: 100 * time.Millisecond,
			BaseBackoff:    2 * time.Millisecond,
			MaxBackoff:     50 * time.Millisecond,
		},
	}
	var (
		migrating   rebalancePhase
		migLat      []time.Duration
		migFailed   atomic.Int64
		migDone     atomic.Bool
		latCh       = make(chan time.Duration, 4096)
		queryClosed = make(chan struct{})
	)
	go func() {
		defer close(queryClosed)
		for !migDone.Load() {
			start := time.Now()
			if err := runQuery(); err != nil {
				migFailed.Add(1)
			}
			latCh <- time.Since(start)
		}
	}()

	var records []*Record
	migStart := time.Now()
	for p := 0; p < moveCount; p++ {
		urls, _, err := cluster.PartitionPlacement("events", p)
		if err != nil {
			t.Fatal(err)
		}
		rec, err := drv.Start(ctx, &Record{
			Service:   "events",
			Shard:     int64(p),
			Partition: core.PartitionName("events", p),
			Source:    urls[0],
			Target:    joiner.URL,
		})
		if err != nil {
			t.Fatalf("migrating partition %d: %v", p, err)
		}
		records = append(records, rec)
	}
	migElapsed := time.Since(migStart)
	migDone.Store(true)
	<-queryClosed
	close(latCh)
	for d := range latCh {
		migLat = append(migLat, d)
	}
	migrating.Queries = len(migLat)
	migrating.Failed = migFailed.Load()
	migrating.P50ms = quantileMS(migLat, 0.50)
	migrating.P99ms = quantileMS(migLat, 0.99)

	var movedBytes, movedRows int64
	var unavailMS []float64
	var maxUnavailMS float64
	rounds := 0
	for _, rec := range records {
		movedBytes += rec.MovedBytes
		movedRows += rec.MovedRows
		rounds += rec.Rounds
		w := float64(rec.UnavailableFor().Microseconds()) / 1000
		unavailMS = append(unavailMS, w)
		if w > maxUnavailMS {
			maxUnavailMS = w
		}
	}

	// Phase 3: post-migration steady state on the rebalanced layout.
	var after rebalancePhase
	var afterLat []time.Duration
	for i := 0; i < 400; i++ {
		start := time.Now()
		if err := runQuery(); err != nil {
			after.Failed++
		}
		afterLat = append(afterLat, time.Since(start))
	}
	after.Queries = len(afterLat)
	after.P50ms = quantileMS(afterLat, 0.50)
	after.P99ms = quantileMS(afterLat, 0.99)

	report := struct {
		Rows                int            `json:"rows"`
		Partitions          int            `json:"partitions"`
		PartitionsMoved     int            `json:"partitions_moved"`
		MovedBytes          int64          `json:"moved_bytes"`
		MovedRows           int64          `json:"moved_rows"`
		CatchupRounds       int            `json:"catchup_rounds"`
		MigrationElapsedMS  float64        `json:"migration_elapsed_ms"`
		UnavailabilityMS    []float64      `json:"unavailability_ms_per_move"`
		MaxUnavailabilityMS float64        `json:"max_unavailability_ms"`
		Steady              rebalancePhase `json:"steady"`
		DuringMigration     rebalancePhase `json:"during_migration"`
		AfterMigration      rebalancePhase `json:"after_migration"`
	}{
		Rows:                seedRows,
		Partitions:          partitions,
		PartitionsMoved:     moveCount,
		MovedBytes:          movedBytes,
		MovedRows:           movedRows,
		CatchupRounds:       rounds,
		MigrationElapsedMS:  float64(migElapsed.Microseconds()) / 1000,
		UnavailabilityMS:    unavailMS,
		MaxUnavailabilityMS: maxUnavailMS,
		Steady:              steady,
		DuringMigration:     migrating,
		AfterMigration:      after,
	}

	if migrating.Failed != 0 || steady.Failed != 0 || after.Failed != 0 {
		t.Fatalf("failed queries: steady=%d during=%d after=%d",
			steady.Failed, migrating.Failed, after.Failed)
	}
	t.Logf("moved %d partitions (%d rows, %d bytes, %d catchup rounds) in %.0fms; max unavailability %.2fms",
		moveCount, movedRows, movedBytes, rounds, report.MigrationElapsedMS, maxUnavailMS)
	t.Logf("p50/p99 ms: steady %.2f/%.2f, during migration %.2f/%.2f, after %.2f/%.2f",
		steady.P50ms, steady.P99ms, migrating.P50ms, migrating.P99ms, after.P50ms, after.P99ms)

	blob, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(blob, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}
