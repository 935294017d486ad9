package engine

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"testing"
	"time"

	"cubrick/internal/brick"
	"cubrick/internal/randutil"
)

// TestEncodedExecBench is the bench harness behind scripts/bench.sh: when
// ENCODED_BENCH_OUT is set it measures the two headline encoded-execution
// series and writes them as JSON —
//
//   - 2-dim GROUP BY over run-encoded bricks: composite-key segment kernel
//     versus materialize-then-aggregate (acceptance: >=3x),
//   - selective-filter scan touching <10% of runs: compiled predicate
//     skippers + FOR-bounds brick pruning versus full decode with row
//     predicates (acceptance: >=5x).
func TestEncodedExecBench(t *testing.T) {
	out := os.Getenv("ENCODED_BENCH_OUT")
	if out == "" {
		t.Skip("set ENCODED_BENCH_OUT to run the encoded execution bench")
	}
	const minDur = 500 * time.Millisecond
	rnd := randutil.New(99)

	// Both grouped dims arrive as long runs in every brick: key is sorted
	// (runs of 4000), sub cycles slowly (runs of 100). The key domain is
	// wide, so the materialized baseline pays a composite-key hash probe
	// per row where the segment kernel pays one per run intersection.
	schema := brick.Schema{
		Dimensions: []brick.Dimension{
			{Name: "key", Max: 200000, Buckets: 8},
			{Name: "sub", Max: 50, Buckets: 1},
			{Name: "pos", Max: 1000, Buckets: 1},
		},
		Metrics: []brick.Metric{{Name: "m"}},
	}
	s, err := brick.NewStore(schema)
	if err != nil {
		t.Fatal(err)
	}
	r := 0
	for k := 0; k < 64; k++ {
		for i := 0; i < 8000; i++ {
			if err := s.Insert([]uint32{uint32(k * 3000), uint32(r / 100 % 50), uint32(r / 512)},
				[]float64{float64(rnd.Intn(1<<16)) / 4}); err != nil {
				t.Fatal(err)
			}
			r++
		}
	}
	if _, _, err := s.EnsureBudget(0, 0.5); err != nil {
		t.Fatal(err)
	}
	if st := s.EncodingStats(); st.Dims["rle"] == 0 {
		t.Fatalf("run-shaped dims never chose rle: %v", st.Dims)
	}
	// Steady-state hot scans: the decoded-column cache pins the Gorilla
	// metric unpack (which otherwise dominates both sides identically), so
	// the series isolates the aggregation kernels under comparison.
	s.SetDecodedCache(brick.NewDecodedCache(256 << 20))
	rows := s.Rows()

	measure := func(q *Query, o Opts) float64 {
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

	groupQ := &Query{
		Aggregates: []Aggregate{{Func: Sum, Metric: "m"}, {Func: Count}},
		GroupBy:    []string{"key", "sub"},
	}
	groupFast := measure(groupQ, Opts{})
	groupSlow := measure(groupQ, Opts{noEncodedKernels: true})

	// pos is globally sorted, so every brick holds a narrow pos band: the
	// one-value range prunes most bricks by FOR bounds before any decode
	// and the run skipper decides the survivors run by run.
	filterQ := &Query{
		Aggregates: []Aggregate{{Func: Sum, Metric: "m"}, {Func: Count}},
		GroupBy:    []string{"key"},
		Filter:     map[string][2]uint32{"pos": {500, 502}},
	}
	_, st, err := runUnshared(s, filterQ, 0, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	touched := float64(st.RunsTouched) / float64(st.RunsTouched+st.RunsSkipped+1)
	filterFast := measure(filterQ, Opts{})
	filterSlow := measure(filterQ, Opts{noSkippers: true})

	blob, err := json.MarshalIndent(map[string]interface{}{
		"generated":                        time.Now().UTC().Format(time.RFC3339),
		"rows":                             rows,
		"groupby2_encoded_rows_per_s":      groupFast,
		"groupby2_materialized_rows_per_s": groupSlow,
		"groupby2_speedup":                 groupFast / groupSlow,
		"groupby2_query":                   "SELECT key, sub, sum(m), count(*) GROUP BY key, sub (RLE bricks)",
		"filter_skipper_rows_per_s":        filterFast,
		"filter_fulldecode_rows_per_s":     filterSlow,
		"filter_speedup":                   filterFast / filterSlow,
		"filter_runs_touched_fraction":     touched,
		"filter_bricks_bounds_pruned":      st.BricksStatsPruned,
		"filter_query":                     "SELECT key, sum(m), count(*) WHERE pos BETWEEN 500 AND 502 GROUP BY key",
	}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("encoded exec bench: groupby2 %.2fx, filter %.2fx (%.1f%% runs touched, %d bricks pruned)",
		groupFast/groupSlow, filterFast/filterSlow, touched*100, st.BricksStatsPruned)
}

// BenchmarkBuildSel is buildSel's cost per row of one partially covered
// batch, by filter shape — one materialized predicate; runs and one
// materialized predicate; dictionary codes and two materialized
// predicates — at 256 and 4 096 rows and 50% / 5% selectivity, each
// predicate accepting an equal share so the shares multiply to it.
func BenchmarkBuildSel(b *testing.B) {
	for _, shape := range []struct {
		name              string
		runs, codes, mats int
	}{{"mat", 0, 0, 1}, {"runs+mat", 1, 0, 1}, {"codes+mat2", 0, 1, 2}} {
		for _, rows := range []int{256, 4096} {
			for _, sel := range []float64{0.5, 0.05} {
				b.Run(fmt.Sprintf("%s/rows=%d/sel=%g", shape.name, rows, sel), func(b *testing.B) {
					rnd := randutil.New(int64(rows))
					k := shape.runs + shape.codes + shape.mats
					// Values are uniform over [0, 1000) and every predicate
					// accepts [0, hi].
					hi := uint32(1000*math.Pow(sel, 1/float64(k))) - 1
					batch := &brick.Batch{Rows: rows, Dims: make([][]uint32, k), DimRuns: make([][]brick.Run, k),
						DimCodes: make([][]uint32, k), DimDict: make([][]uint32, k)}
					c := &compiled{}
					bounds := make([][2]uint32, k)
					for d := 0; d < k; d++ {
						bounds[d] = [2]uint32{0, 999}
						c.filterDims = append(c.filterDims, filterDim{idx: d, hi: hi})
						switch {
						case d < shape.runs: // runs of eight rows
							for r := 0; r < rows; r += 8 {
								batch.DimRuns[d] = append(batch.DimRuns[d], brick.Run{Value: uint32(rnd.Intn(1000)), Length: 8})
							}
						case d < shape.runs+shape.codes: // the dictionary 0, 10, …, 990
							for v := uint32(0); v < 1000; v += 10 {
								batch.DimDict[d] = append(batch.DimDict[d], v)
							}
							for r := 0; r < rows; r++ {
								batch.DimCodes[d] = append(batch.DimCodes[d], uint32(rnd.Intn(100)))
							}
						default:
							for r := 0; r < rows; r++ {
								batch.Dims[d] = append(batch.Dims[d], uint32(rnd.Intn(1000)))
							}
						}
					}
					es := &encScratch{}
					var st ScanStats
					out := make([]int32, 0, rows)
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						out, _ = c.buildSel(batch, bounds, out[:0], es, &st)
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(rows), "ns/row")
					b.ReportMetric(float64(len(out))/float64(rows), "selected")
				})
			}
		}
	}
}
