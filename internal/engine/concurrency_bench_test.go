// Concurrency benchmark for the shared-scan scheduler: aggregate QPS and
// tail latency at increasing concurrency, folded vs unfolded, over a
// zipf-skewed dashboard-style workload (a few hot query shapes). External
// test package so it can drive the workload replay generator without an
// import cycle.
package engine_test

import (
	"context"
	"encoding/json"
	"os"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"cubrick/internal/brick"
	"cubrick/internal/engine"
	"cubrick/internal/randutil"
	"cubrick/internal/workload"
)

type concModeStats struct {
	QPS   float64 `json:"qps"`
	P50ms float64 `json:"p50_ms"`
	P99ms float64 `json:"p99_ms"`
}

type concLevel struct {
	Concurrency int           `json:"concurrency"`
	Queries     int           `json:"queries"`
	Folded      concModeStats `json:"folded"`
	Unfolded    concModeStats `json:"unfolded"`
	QPSSpeedup  float64       `json:"qps_speedup"`
	FoldedStats struct {
		Solo     int64 `json:"solo"`
		Attached int64 `json:"attached"`
	} `json:"folded_passes"`
}

// TestConcurrencyBench runs only when CONCURRENCY_BENCH_OUT names the JSON
// file to write (bench.sh sets it to BENCH_concurrency.json).
func TestConcurrencyBench(t *testing.T) {
	out := os.Getenv("CONCURRENCY_BENCH_OUT")
	if out == "" {
		t.Skip("set CONCURRENCY_BENCH_OUT to run the concurrency benchmark")
	}

	// ds partitions the store into bricks; app is an unbucketed attribute
	// dimension, so filters on it never prune bricks — every query pays the
	// full decode+filter walk, which is exactly the work folding shares.
	schema := brick.Schema{
		Dimensions: []brick.Dimension{
			{Name: "ds", Max: 32, Buckets: 16},
			{Name: "app", Max: 1024, Buckets: 1},
		},
		Metrics: []brick.Metric{{Name: "value"}},
	}
	st, err := brick.NewStore(schema)
	if err != nil {
		t.Fatal(err)
	}
	// Scans must be long relative to the runtime's scheduling quantum for
	// concurrent queries to overlap (and thus fold) on small machines, and
	// long enough that late subscribers attach early in the pass (catch-up
	// work scales with the attach point): ~1M rows puts a full pass well
	// past the ~10ms goroutine preemption quantum.
	const rows = 1024 * 1024
	rnd := randutil.New(20260807)
	for i := 0; i < rows; i++ {
		st.Insert([]uint32{uint32(rnd.Intn(32)), uint32(rnd.Intn(1024))}, []float64{float64(i % 4096)})
	}
	// Compress everything: the shared win of a folded pass is the transient
	// decode each solo query would otherwise repeat.
	if _, _, err := st.EnsureBudget(0, 0.5); err != nil {
		t.Fatal(err)
	}

	// Dashboard-style shapes: always a selective filter on the attribute
	// dimension, so the shared decode+filter walk dominates the private
	// per-subscriber accumulation.
	replay, err := workload.NewQueryReplay(schema, workload.ReplayConfig{
		Shapes: 4, Skew: 2.0, FilterProb: 1, FilterDim: "app", Selectivity: 0.1,
	}, rnd)
	if err != nil {
		t.Fatal(err)
	}

	levels := []int{1, 8, 64, 512}
	report := struct {
		Rows   int         `json:"rows"`
		Shapes int         `json:"shapes"`
		Skew   float64     `json:"skew"`
		Levels []concLevel `json:"levels"`
	}{Rows: rows, Shapes: 4, Skew: 2.0}

	for _, c := range levels {
		iters := 128 / c
		if iters < 1 {
			iters = 1
		}
		if c == 1 {
			// The acceptance comparison at concurrency 1 is a tail
			// latency; give it enough samples for a stable p99.
			iters = 256
		}
		total := c * iters
		// One pre-drawn stream per level so folded and unfolded modes see
		// the identical query sequence.
		stream := make([]*engine.Query, total)
		for i := range stream {
			stream[i] = replay.Next()
		}

		lvl := concLevel{Concurrency: c, Queries: total}
		for _, mode := range []string{"unfolded", "folded"} {
			sched := engine.NewScheduler(st, engine.SchedulerConfig{})
			opts := engine.Opts{Unshared: mode == "unfolded"}
			// Warm up and clear the previous mode's garbage so one GC pause
			// doesn't decide a p99.
			for i := 0; i < 3; i++ {
				if _, err := sched.Run(context.Background(), stream[i%len(stream)], opts, new(engine.Combiner)); err != nil {
					t.Fatal(err)
				}
			}
			runtime.GC()
			lats := make([][]time.Duration, c)
			start := time.Now()
			var wg sync.WaitGroup
			for w := 0; w < c; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					mine := stream[w*iters : (w+1)*iters]
					lats[w] = make([]time.Duration, len(mine))
					var cb engine.Combiner
					for i, q := range mine {
						t0 := time.Now()
						cb.Reset()
						if _, err := sched.Run(context.Background(), q, opts, &cb); err != nil {
							t.Error(err)
							return
						}
						lats[w][i] = time.Since(t0)
					}
				}(w)
			}
			wg.Wait()
			wall := time.Since(start)
			if t.Failed() {
				t.Fatalf("%s mode had query errors", mode)
			}
			var all []time.Duration
			for _, l := range lats {
				all = append(all, l...)
			}
			sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
			stats := concModeStats{
				QPS:   float64(total) / wall.Seconds(),
				P50ms: float64(all[len(all)/2]) / float64(time.Millisecond),
				P99ms: float64(all[len(all)*99/100]) / float64(time.Millisecond),
			}
			if mode == "folded" {
				lvl.Folded = stats
				fs := sched.Stats()
				lvl.FoldedStats.Solo = fs.Solo - 3 // exclude the warmup passes
				lvl.FoldedStats.Attached = fs.Attached
			} else {
				lvl.Unfolded = stats
			}
		}
		lvl.QPSSpeedup = lvl.Folded.QPS / lvl.Unfolded.QPS
		report.Levels = append(report.Levels, lvl)
		t.Logf("concurrency %d: folded %.0f qps p99 %.2fms, unfolded %.0f qps p99 %.2fms, speedup %.2fx",
			c, lvl.Folded.QPS, lvl.Folded.P99ms, lvl.Unfolded.QPS, lvl.Unfolded.P99ms, lvl.QPSSpeedup)
	}

	blob, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(blob, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}
