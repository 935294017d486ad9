// Caching benchmark: a zipf-skewed dashboard replay (a few hot query
// shapes, repeatedly refreshed) against a small cluster, with the caching
// tier on vs off and with vs without concurrent ingest. Captures p50/p99
// latency and cache hit rates into the JSON file named by
// CACHING_BENCH_OUT (bench.sh sets it to BENCH_caching.json).
//
// Acceptance targets: >=5x p50 speedup with caches on for the zipf-2.0
// replay of 4 shapes, result-cache hit rate >=80%, and p99 under ingest
// no worse than the uncached tier under the same ingest.
package netexec

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"os"
	"sort"
	"testing"
	"time"

	"cubrick/internal/brick"
	"cubrick/internal/engine"
	"cubrick/internal/partition"
	"cubrick/internal/randutil"
	"cubrick/internal/rescache"
	"cubrick/internal/workload"
)

type cachingCell struct {
	Queries       int     `json:"queries"`
	P50ms         float64 `json:"p50_ms"`
	P99ms         float64 `json:"p99_ms"`
	ResultHitRate float64 `json:"result_hit_rate"`
	Invalidations int64   `json:"result_invalidations"`
	IngestBatches int     `json:"ingest_batches"`
}

func cachingSchema() brick.Schema {
	return brick.Schema{
		Dimensions: []brick.Dimension{
			{Name: "ds", Max: 32, Buckets: 16},
			{Name: "app", Max: 1024, Buckets: 1},
		},
		Metrics: []brick.Metric{{Name: "value"}},
	}
}

// runCachingCell stands up a fresh 2-worker cluster, loads `rows` rows,
// replays the pre-drawn query stream sequentially (a dashboard client),
// and returns latency percentiles plus cache counters. When ingest is
// true a background loader trickles batches through the coordinator for
// the duration of the replay, bumping epochs under the replay's feet.
func runCachingCell(t *testing.T, stream []*engine.Query, rows int, caches, ingest bool) cachingCell {
	t.Helper()
	var servers []*httptest.Server
	var urls []string
	for i := 0; i < 2; i++ {
		var cfg partition.Config
		if caches {
			cfg.DecodedCacheBytes = 32 << 20
		}
		w := NewWorker(cfg)
		srv := httptest.NewServer(w.Handler())
		servers = append(servers, srv)
		urls = append(urls, srv.URL)
	}
	defer func() {
		for _, s := range servers {
			s.Close()
		}
	}()
	cluster, err := NewCluster(urls, 64, nil)
	if err != nil {
		t.Fatal(err)
	}
	coord := cluster.Coordinator()
	if caches {
		coord.ResultCache = rescache.New(64 << 20)
	}
	ctx := context.Background()
	schema := cachingSchema()
	if err := cluster.CreateTable(ctx, "events", schema, 2); err != nil {
		t.Fatal(err)
	}
	rnd := randutil.New(20260808)
	dims := make([][]uint32, rows)
	mets := make([][]float64, rows)
	for i := range dims {
		dims[i] = []uint32{uint32(rnd.Intn(32)), uint32(rnd.Intn(1024))}
		mets[i] = []float64{float64(i % 4096)}
	}
	if err := cluster.Load(ctx, "events", dims, mets); err != nil {
		t.Fatal(err)
	}
	targets, err := cluster.Targets("events")
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	ingestDone := make(chan int)
	if ingest {
		go func() {
			batches := 0
			tick := time.NewTicker(5 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					ingestDone <- batches
					return
				case <-tick.C:
					bd := make([][]uint32, 64)
					bm := make([][]float64, 64)
					for i := range bd {
						bd[i] = []uint32{uint32(rnd.Intn(32)), uint32(rnd.Intn(1024))}
						bm[i] = []float64{1}
					}
					if err := cluster.Load(ctx, "events", bd, bm); err != nil {
						t.Error(err)
						ingestDone <- batches
						return
					}
					batches++
				}
			}
		}()
	}

	lats := make([]time.Duration, len(stream))
	for i, q := range stream {
		t0 := time.Now()
		if _, err := coord.Query(ctx, targets, q); err != nil {
			t.Fatal(err)
		}
		lats[i] = time.Since(t0)
	}
	cell := cachingCell{Queries: len(stream)}
	if ingest {
		close(stop)
		cell.IngestBatches = <-ingestDone
	}
	if t.Failed() {
		t.Fatal("background ingest failed")
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	cell.P50ms = float64(lats[len(lats)/2]) / float64(time.Millisecond)
	cell.P99ms = float64(lats[len(lats)*99/100]) / float64(time.Millisecond)
	if caches {
		st := coord.ResultCache.Stats()
		if st.Hits+st.Misses > 0 {
			cell.ResultHitRate = float64(st.Hits) / float64(st.Hits+st.Misses)
		}
		cell.Invalidations = st.Invalidations
	}
	return cell
}

// TestCachingBench runs only when CACHING_BENCH_OUT names the JSON file to
// write (bench.sh sets it to BENCH_caching.json).
func TestCachingBench(t *testing.T) {
	out := os.Getenv("CACHING_BENCH_OUT")
	if out == "" {
		t.Skip("set CACHING_BENCH_OUT to run the caching benchmark")
	}

	const rows = 256 * 1024
	const queries = 400
	// Pre-draw one zipf-2.0 stream over 4 dashboard shapes so every cell
	// replays the identical query sequence.
	replay, err := workload.NewQueryReplay(cachingSchema(), workload.ReplayConfig{
		Shapes: 4, Skew: 2.0, FilterProb: 1, FilterDim: "app", Selectivity: 0.1,
	}, randutil.New(20260807))
	if err != nil {
		t.Fatal(err)
	}
	stream := make([]*engine.Query, queries)
	for i := range stream {
		stream[i] = replay.Next()
	}

	report := struct {
		Rows           int         `json:"rows"`
		Shapes         int         `json:"shapes"`
		Skew           float64     `json:"skew"`
		CachedIdle     cachingCell `json:"cached_idle"`
		UncachedIdle   cachingCell `json:"uncached_idle"`
		CachedIngest   cachingCell `json:"cached_ingest"`
		UncachedIngest cachingCell `json:"uncached_ingest"`
		P50Speedup     float64     `json:"p50_speedup_idle"`
		P99IngestRatio float64     `json:"p99_cached_over_uncached_ingest"`
	}{Rows: rows, Shapes: 4, Skew: 2.0}

	report.UncachedIdle = runCachingCell(t, stream, rows, false, false)
	report.CachedIdle = runCachingCell(t, stream, rows, true, false)
	report.UncachedIngest = runCachingCell(t, stream, rows, false, true)
	report.CachedIngest = runCachingCell(t, stream, rows, true, true)
	report.P50Speedup = report.UncachedIdle.P50ms / report.CachedIdle.P50ms
	report.P99IngestRatio = report.CachedIngest.P99ms / report.UncachedIngest.P99ms

	t.Logf("idle: cached p50 %.3fms p99 %.3fms hit %.1f%% | uncached p50 %.3fms p99 %.3fms | p50 speedup %.1fx",
		report.CachedIdle.P50ms, report.CachedIdle.P99ms, report.CachedIdle.ResultHitRate*100,
		report.UncachedIdle.P50ms, report.UncachedIdle.P99ms, report.P50Speedup)
	t.Logf("ingest: cached p99 %.3fms hit %.1f%% inval %d | uncached p99 %.3fms | ratio %.2f",
		report.CachedIngest.P99ms, report.CachedIngest.ResultHitRate*100, report.CachedIngest.Invalidations,
		report.UncachedIngest.P99ms, report.P99IngestRatio)

	blob, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(blob, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}
