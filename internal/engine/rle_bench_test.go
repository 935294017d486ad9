package engine

import (
	"encoding/json"
	"os"
	"testing"
	"time"

	"cubrick/internal/brick"
	"cubrick/internal/randutil"
)

// TestRLEKernelBench is the bench harness behind scripts/bench.sh: when
// RLE_BENCH_OUT is set it measures GROUP BY throughput over RLE-encoded
// bricks with the run-aware kernel enabled versus disabled (materialize +
// per-row aggregation), and writes the speedup as JSON.
func TestRLEKernelBench(t *testing.T) {
	out := os.Getenv("RLE_BENCH_OUT")
	if out == "" {
		t.Skip("set RLE_BENCH_OUT to run the RLE kernel bench")
	}
	const minDur = 500 * time.Millisecond
	rnd := randutil.New(13)
	schema := brick.Schema{
		Dimensions: []brick.Dimension{
			{Name: "key", Max: 64, Buckets: 8},
			{Name: "other", Max: 50, Buckets: 5},
		},
		Metrics: []brick.Metric{{Name: "m"}},
	}
	s, err := brick.NewStore(schema)
	if err != nil {
		t.Fatal(err)
	}
	// Sorted keys → long runs in every brick's key column.
	for k := 0; k < 64; k += 2 {
		for r := 0; r < 4000; r++ {
			if err := s.Insert([]uint32{uint32(k), uint32(rnd.Intn(50))},
				[]float64{float64(rnd.Intn(1<<16)) / 4}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, _, err := s.EnsureBudget(0, 0.5); err != nil {
		t.Fatal(err)
	}
	if st := s.EncodingStats(); st.Dims["rle"] == 0 {
		t.Fatalf("key column never chose rle: %v", st.Dims)
	}
	q := &Query{
		Aggregates: []Aggregate{{Func: Sum, Metric: "m"}, {Func: Count}},
		GroupBy:    []string{"key"},
	}
	rows := s.Rows()
	run := func(o Opts) float64 {
		start := time.Now()
		iters := 0
		for time.Since(start) < minDur {
			if _, _, err := runUnshared(s, q, 4, o); err != nil {
				t.Fatal(err)
			}
			iters++
		}
		return float64(rows) * float64(iters) / time.Since(start).Seconds()
	}
	fast := run(Opts{})
	slow := run(Opts{noEncodedKernels: true})

	blob, err := json.MarshalIndent(map[string]interface{}{
		"generated":                time.Now().UTC().Format(time.RFC3339),
		"rows":                     rows,
		"run_kernel_rows_per_s":    fast,
		"materialized_rows_per_s":  slow,
		"run_aware_kernel_speedup": fast / slow,
		"query":                    "SELECT key, sum(m), count(*) GROUP BY key (RLE bricks)",
	}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(blob, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("run-aware kernel speedup: %.2fx (%.0f vs %.0f rows/s)", fast/slow, fast, slow)
}
