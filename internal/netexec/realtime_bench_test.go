// Realtime benchmark: an aligned coarse time-window aggregate served from
// the incremental rollup versus the same query as a raw brick scan, p50/p99
// over a 1M-row store, written as JSON to the file named by
// REALTIME_BENCH_OUT (bench.sh sets it to BENCH_realtime.json).
// Acceptance: >=10x p50.
package netexec

import (
	"context"
	"encoding/json"
	"os"
	"sort"
	"testing"
	"time"

	"cubrick/internal/brick"
	"cubrick/internal/engine"
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

	report := struct {
		RollupRows       int     `json:"rollup_rows"`
		RollupPath       latCell `json:"rollup_path"`
		RawScan          latCell `json:"raw_scan"`
		RollupP50Speedup float64 `json:"rollup_p50_speedup"`
	}{
		RollupRows:       rollupRows,
		RollupPath:       rollupCell,
		RawScan:          rawCell,
		RollupP50Speedup: rawCell.P50us / rollupCell.P50us,
	}

	t.Logf("rollup: p50 %.0fus p99 %.0fus | raw: p50 %.0fus p99 %.0fus | speedup %.1fx",
		report.RollupPath.P50us, report.RollupPath.P99us, report.RawScan.P50us, report.RawScan.P99us,
		report.RollupP50Speedup)

	blob, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(blob, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}
