// Realtime benchmark: the two dashboard accelerations measured against
// their baselines, written as JSON to the file named by REALTIME_BENCH_OUT
// (bench.sh sets it to BENCH_realtime.json).
//
//   - Rollup path: an aligned coarse time-window aggregate served from the
//     incremental rollup versus the same query as a raw brick scan, p50/p99
//     over a 1M-row store. Acceptance: >=10x p50.
//   - Top-k pushdown: leaderboard queries against a 3-worker HTTP cluster
//     with pushdown on versus full-partial fan-out, measuring actual
//     /partial wire bytes and the certification counters. Acceptance:
//     pushdown ships <=10% of the full-partial bytes with >=90% of queries
//     certified in a single phase.
package netexec

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"cubrick/internal/brick"
	"cubrick/internal/engine"
	"cubrick/internal/metrics"
	"cubrick/internal/partition"
	"cubrick/internal/randutil"
	"cubrick/internal/rollup"
)

type latCell struct {
	Queries int     `json:"queries"`
	P50us   float64 `json:"p50_us"`
	P99us   float64 `json:"p99_us"`
}

func percentiles(lats []time.Duration) latCell {
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	return latCell{
		Queries: len(lats),
		P50us:   float64(lats[len(lats)/2]) / float64(time.Microsecond),
		P99us:   float64(lats[len(lats)*99/100]) / float64(time.Microsecond),
	}
}

// countingWriter sums every /partial response body byte — the wire cost a
// coordinator actually pays per fetch.
type countingWriter struct {
	http.ResponseWriter
	n *int64
}

func (c countingWriter) Write(b []byte) (int, error) {
	atomic.AddInt64(c.n, int64(len(b)))
	return c.ResponseWriter.Write(b)
}

func countPartialBytes(h http.Handler, n *int64) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/partial" {
			h.ServeHTTP(countingWriter{rw, n}, r)
			return
		}
		h.ServeHTTP(rw, r)
	})
}

// TestRealtimeBench runs only when REALTIME_BENCH_OUT names the JSON file
// to write.
func TestRealtimeBench(t *testing.T) {
	out := os.Getenv("REALTIME_BENCH_OUT")
	if out == "" {
		t.Skip("set REALTIME_BENCH_OUT to run the realtime benchmark")
	}
	rnd := randutil.New(20260808)

	// ---- Rollup path vs raw scan over 1M rows.
	schema := brick.Schema{
		Dimensions: []brick.Dimension{
			{Name: "ds", Max: 64, Buckets: 8},
			{Name: "region", Max: 8, Buckets: 4},
			{Name: "app", Max: 4096, Buckets: 1},
		},
		Metrics: []brick.Metric{{Name: "value"}},
	}
	const rollupRows = 1 << 20
	st, err := brick.NewStore(schema)
	if err != nil {
		t.Fatal(err)
	}
	batch := 4096
	for done := 0; done < rollupRows; done += batch {
		dims := make([][]uint32, batch)
		mets := make([][]float64, batch)
		for i := range dims {
			dims[i] = []uint32{uint32(rnd.Intn(64)), uint32(rnd.Intn(8)), uint32(rnd.Intn(4096))}
			mets[i] = []float64{float64(rnd.Intn(4096))}
		}
		if err := st.InsertBatchRows(dims, mets); err != nil {
			t.Fatal(err)
		}
	}
	tbl, err := rollup.New(schema, rollup.Config{TimeDim: "ds", Bucket: 8, Dims: []string{"region"}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.CatchUp(st); err != nil {
		t.Fatal(err)
	}
	q := &engine.Query{
		Aggregates: []engine.Aggregate{
			{Func: engine.Sum, Metric: "value"},
			{Func: engine.Count},
		},
		GroupBy: []string{"region"},
		Filter:  map[string][2]uint32{"ds": {0, 39}}, // five whole 8-buckets
	}
	const iters = 60
	rollupLats := make([]time.Duration, 0, iters)
	rawLats := make([]time.Duration, 0, iters)
	var rollupRef, rawRef *engine.Result
	for i := 0; i < iters; i++ {
		t0 := time.Now()
		p, _, ok, err := engine.ExecuteRollup(context.Background(), st, tbl, q)
		if err != nil || !ok {
			t.Fatalf("rollup path not taken: ok=%v err=%v", ok, err)
		}
		rollupLats = append(rollupLats, time.Since(t0))
		rollupRef = p.Finalize()
	}
	raw := engine.NewScheduler(st, engine.SchedulerConfig{})
	for i := 0; i < iters; i++ {
		t0 := time.Now()
		p, _, err := raw.Run(context.Background(), q, engine.Opts{Unshared: true})
		if err != nil {
			t.Fatal(err)
		}
		rawLats = append(rawLats, time.Since(t0))
		rawRef = p.Finalize()
	}
	for i := range rawRef.Rows {
		for j := range rawRef.Rows[i] {
			if rollupRef.Rows[i][j] != rawRef.Rows[i][j] {
				t.Fatalf("rollup answer diverged at [%d][%d]: %v vs %v",
					i, j, rollupRef.Rows[i][j], rawRef.Rows[i][j])
			}
		}
	}
	rollupCell := percentiles(rollupLats)
	rawCell := percentiles(rawLats)

	// ---- Top-k pushdown wire bytes vs full-partial fan-out.
	var wireBytes int64
	var servers []*httptest.Server
	var urls []string
	for i := 0; i < 3; i++ {
		w := NewWorker(partition.Config{})
		srv := httptest.NewServer(countPartialBytes(w.Handler(), &wireBytes))
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
	ctx := context.Background()
	if err := cluster.CreateTable(ctx, "events", schema, 3); err != nil {
		t.Fatal(err)
	}
	const topkRows = 192 * 1024
	for done := 0; done < topkRows; done += batch {
		dims := make([][]uint32, batch)
		mets := make([][]float64, batch)
		for i := range dims {
			app := uint32(rnd.Intn(4096))
			dims[i] = []uint32{uint32(rnd.Intn(64)), uint32(rnd.Intn(8)), app}
			// Zipf-shaped group mass separates the leaderboard cleanly,
			// which is what lets phase-1 bounds certify. Integer values keep
			// partial sums exact under any merge order.
			mets[i] = []float64{float64(4096 / int(app+1))}
		}
		if err := cluster.Load(ctx, "events", dims, mets); err != nil {
			t.Fatal(err)
		}
	}
	targets, err := cluster.Targets("events")
	if err != nil {
		t.Fatal(err)
	}
	const topkQueries = 50
	stream := make([]*engine.Query, topkQueries)
	for i := range stream {
		stream[i] = &engine.Query{
			Aggregates: []engine.Aggregate{{Func: engine.Sum, Metric: "value", Alias: "total"}},
			GroupBy:    []string{"app"},
			Filter:     map[string][2]uint32{"ds": {0, uint32(24 + rnd.Intn(39))}},
			OrderBy:    "total",
			Desc:       true,
			Limit:      10,
		}
	}
	reg := metrics.NewRegistry()
	topkCoord := &Coordinator{TopKOverfetch: 3, Metrics: reg}
	atomic.StoreInt64(&wireBytes, 0)
	topkResults := make([]*engine.Result, topkQueries)
	for i, q := range stream {
		r, err := topkCoord.Query(ctx, targets, q)
		if err != nil {
			t.Fatal(err)
		}
		topkResults[i] = r
	}
	topkBytes := atomic.LoadInt64(&wireBytes)
	counters := reg.CounterValues()

	fullCoord := &Coordinator{}
	atomic.StoreInt64(&wireBytes, 0)
	for i, q := range stream {
		r, err := fullCoord.Query(ctx, targets, q)
		if err != nil {
			t.Fatal(err)
		}
		for ri := range r.Rows {
			for ci := range r.Rows[ri] {
				if topkResults[i].Rows[ri][ci] != r.Rows[ri][ci] {
					t.Fatalf("query %d: pushdown diverged at [%d][%d]", i, ri, ci)
				}
			}
		}
	}
	fullBytes := atomic.LoadInt64(&wireBytes)

	certified := counters["netexec.topk.certified"]
	secondPhase := counters["netexec.topk.second_phase"]
	onePhase := certified - secondPhase
	if onePhase < 0 {
		onePhase = 0
	}

	report := struct {
		RollupRows       int     `json:"rollup_rows"`
		RollupPath       latCell `json:"rollup_path"`
		RawScan          latCell `json:"raw_scan"`
		RollupP50Speedup float64 `json:"rollup_p50_speedup"`
		TopKRows         int     `json:"topk_rows"`
		TopKQueries      int     `json:"topk_queries"`
		TopKWireBytes    int64   `json:"topk_wire_bytes"`
		FullWireBytes    int64   `json:"full_wire_bytes"`
		TopKWireFraction float64 `json:"topk_wire_fraction"`
		Certified        int64   `json:"certified"`
		SecondPhase      int64   `json:"second_phase"`
		Fallback         int64   `json:"fallback"`
		OnePhaseRate     float64 `json:"one_phase_certified_rate"`
	}{
		RollupRows:       rollupRows,
		RollupPath:       rollupCell,
		RawScan:          rawCell,
		RollupP50Speedup: rawCell.P50us / rollupCell.P50us,
		TopKRows:         topkRows,
		TopKQueries:      topkQueries,
		TopKWireBytes:    topkBytes,
		FullWireBytes:    fullBytes,
		TopKWireFraction: float64(topkBytes) / float64(fullBytes),
		Certified:        certified,
		SecondPhase:      secondPhase,
		Fallback:         counters["netexec.topk.fallback"],
		OnePhaseRate:     float64(onePhase) / float64(topkQueries),
	}

	t.Logf("rollup: p50 %.0fus p99 %.0fus | raw: p50 %.0fus p99 %.0fus | speedup %.1fx",
		report.RollupPath.P50us, report.RollupPath.P99us, report.RawScan.P50us, report.RawScan.P99us,
		report.RollupP50Speedup)
	t.Logf("topk: %d/%d bytes (%.1f%%) certified=%d second_phase=%d fallback=%d one-phase rate %.0f%%",
		report.TopKWireBytes, report.FullWireBytes, report.TopKWireFraction*100,
		report.Certified, report.SecondPhase, report.Fallback, report.OnePhaseRate*100)

	blob, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(blob, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}
