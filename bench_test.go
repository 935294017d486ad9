// Benchmarks, one per table/figure of the paper's evaluation. Each
// benchmark regenerates the corresponding result and reports the headline
// quantities as custom metrics, so `go test -bench=. -benchmem` doubles as
// the reproduction harness (cmd/experiments prints the full series).
package cubrick_test

import (
	"context"
	"testing"
	"time"

	cubrick "cubrick"
	"cubrick/internal/brick"
	"cubrick/internal/cluster"
	"cubrick/internal/core"
	"cubrick/internal/engine"
	"cubrick/internal/randutil"
	"cubrick/internal/sim"
	"cubrick/internal/simclock"
	"cubrick/internal/wall"
)

func newBenchClock() *simclock.SimClock {
	return simclock.NewSim(time.Date(2021, 1, 1, 0, 0, 0, 0, time.UTC))
}

// BenchmarkFig1SuccessRatio regenerates Fig 1: query success ratio vs
// nodes visited at p = 0.01%, and the wall crossing for a 99% SLA
// (expected ≈ 100 servers).
func BenchmarkFig1SuccessRatio(b *testing.B) {
	var wallAt int
	for i := 0; i < b.N; i++ {
		_, wallAt = wall.PaperFig1()
	}
	b.ReportMetric(float64(wallAt), "wall_nodes")
	b.ReportMetric(wall.SuccessRatio(1e-4, 1000), "success_at_1000")
}

// BenchmarkFig2SuccessCurves regenerates Fig 2: success curves for several
// per-server failure probabilities over larger cluster sizes.
func BenchmarkFig2SuccessCurves(b *testing.B) {
	var pts int
	for i := 0; i < b.N; i++ {
		pts = 0
		for _, p := range wall.PaperFig2Probabilities {
			pts += len(wall.Curve(p, 10000, 10))
		}
	}
	b.ReportMetric(float64(pts), "points")
	// Wall positions per curve, most to least reliable.
	for _, p := range wall.PaperFig2Probabilities {
		if n, err := wall.Crossing(p, 0.99); err == nil && p == 1e-4 {
			b.ReportMetric(float64(n), "wall_at_p1e-4")
		}
	}
}

// BenchmarkTablesShardMapping regenerates the §IV-A mapping tables: the
// monotonic mapping of table partitions to consecutive shards, verified
// collision-free within each table.
func BenchmarkTablesShardMapping(b *testing.B) {
	m := core.MonotonicMapper{MaxShards: 100000}
	var collisions int
	for i := 0; i < b.N; i++ {
		collisions = 0
		for _, table := range []string{"dim_users", "test_table"} {
			seen := make(map[int64]bool)
			for _, sh := range core.Shards(m, table, 4) {
				if seen[sh] {
					collisions++
				}
				seen[sh] = true
			}
		}
	}
	b.ReportMetric(float64(collisions), "same_table_collisions")
}

// BenchmarkFig4aCollisions regenerates Fig 4a: the frequency of shard and
// partition collisions across a multi-tenant deployment.
func BenchmarkFig4aCollisions(b *testing.B) {
	cfg := sim.DefaultCollisionConfig()
	var rep core.CollisionReport
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		rep = sim.Collisions(cfg)
	}
	b.ReportMetric(rep.FracShardCollision()*100, "shard_collision_%")
	b.ReportMetric(rep.FracCrossPartition()*100, "cross_partition_%")
	b.ReportMetric(rep.FracSamePartition()*100, "same_table_%")
}

// BenchmarkFig4bPartitionsPerTable regenerates Fig 4b: the distribution of
// partitions per table (mass at 8, ~10% re-partitioned, max ≈ 64).
func BenchmarkFig4bPartitionsPerTable(b *testing.B) {
	var hist map[int]int
	for i := 0; i < b.N; i++ {
		hist = sim.PartitionsHistogram(5000, int64(i+1))
	}
	total := 0
	for _, n := range hist {
		total += n
	}
	b.ReportMetric(float64(hist[8])/float64(total)*100, "at_8_partitions_%")
	keys := sim.SortedKeys(hist)
	b.ReportMetric(float64(keys[len(keys)-1]), "max_partitions")
}

// BenchmarkFig4cPropagationDelay regenerates Fig 4c: the distribution of
// service-discovery propagation delays in seconds.
func BenchmarkFig4cPropagationDelay(b *testing.B) {
	var p50, p99 float64
	for i := 0; i < b.N; i++ {
		dist := sim.PropagationDelays(500, int64(i+1))
		p50, p99 = dist.Quantile(0.5), dist.Quantile(0.99)
	}
	b.ReportMetric(p50, "p50_seconds")
	b.ReportMetric(p99, "p99_seconds")
}

// runWeekOnce runs a small simulated production period shared by the
// Fig 4d/4e/4f benchmarks.
func runWeekOnce(b *testing.B, seed int64) *sim.WeekReport {
	b.Helper()
	cfg := sim.DefaultWeekConfig()
	cfg.Days = 2
	cfg.Tables = 8
	cfg.RowsPerTable = 100
	cfg.QueriesPerHour = 12
	cfg.Seed = seed
	rep, err := sim.RunWeek(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return rep
}

// BenchmarkFig4dMigrationsPerDay regenerates Fig 4d: shard migrations
// executed per simulated day (load balancing + failovers + drains).
func BenchmarkFig4dMigrationsPerDay(b *testing.B) {
	var rep *sim.WeekReport
	for i := 0; i < b.N; i++ {
		rep = runWeekOnce(b, int64(i+1))
	}
	var total float64
	for _, m := range rep.MigrationsPerDay {
		total += m
	}
	b.ReportMetric(total/float64(len(rep.MigrationsPerDay)), "migrations_per_day")
	b.ReportMetric(float64(rep.LiveMigrations), "live_total")
	b.ReportMetric(float64(rep.FailoverMigrations), "failover_total")
}

// BenchmarkFig4eHotCold regenerates Fig 4e: the hot/cold split of data
// blocks (bricks) after a period of zipf-skewed traffic with decay.
func BenchmarkFig4eHotCold(b *testing.B) {
	var rep *sim.WeekReport
	for i := 0; i < b.N; i++ {
		rep = runWeekOnce(b, int64(i+100))
	}
	b.ReportMetric(float64(rep.HotBricks), "hot_bricks")
	b.ReportMetric(float64(rep.ColdBricks), "cold_bricks")
	b.ReportMetric(rep.HotnessP99, "hotness_p99")
}

// BenchmarkFig4fHostRepairs regenerates Fig 4f: hosts sent to the repair
// pipeline per day (permanent failures, handled with no human
// intervention).
func BenchmarkFig4fHostRepairs(b *testing.B) {
	var repairsPerDay float64
	for i := 0; i < b.N; i++ {
		clk := newBenchClock()
		fleet := cluster.Build(cluster.BuildConfig{
			Regions: []string{"east", "west", "central"}, RacksPerRegion: 5, HostsPerRack: 10,
		})
		fcfg := cluster.FailureConfig{PermanentMTBF: 30 * 24 * time.Hour, RepairTime: 24 * time.Hour}
		inj := cluster.NewInjector(clk, fleet, fcfg, randutil.New(int64(i+1)))
		inj.Start()
		days := 7
		clk.Advance(time.Duration(days) * 24 * time.Hour)
		repairsPerDay = float64(inj.Repairs()) / float64(days)
	}
	b.ReportMetric(repairsPerDay, "repairs_per_day")
}

// BenchmarkScanParallelism compares the serial row-at-a-time reference
// against brick-parallel vectorized execution on a single partition's
// store: one morsel per brick, worker pool sized by GOMAXPROCS,
// thread-local kernels merged in brick order. Both paths finalize to the
// same result; the interesting quantity is the speedup.
func BenchmarkScanParallelism(b *testing.B) {
	schema := brick.Schema{
		Dimensions: []brick.Dimension{
			{Name: "ds", Max: 64, Buckets: 16},
			{Name: "app", Max: 256, Buckets: 8},
			{Name: "country", Max: 32, Buckets: 1},
		},
		Metrics: []brick.Metric{{Name: "value"}},
	}
	s, err := brick.NewStore(schema)
	if err != nil {
		b.Fatal(err)
	}
	rnd := randutil.New(11)
	for i := 0; i < 200000; i++ {
		s.Insert(
			[]uint32{uint32(rnd.Intn(64)), uint32(rnd.Intn(256)), uint32(rnd.Intn(32))},
			[]float64{float64(rnd.Intn(1000))},
		)
	}
	q := &engine.Query{
		Aggregates: []engine.Aggregate{{Func: engine.Sum, Metric: "value"}, {Func: engine.Avg, Metric: "value"}},
		GroupBy:    []string{"ds", "app"},
	}
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := engine.Execute(s, q); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(s.BrickCount()), "bricks")
	})
	b.Run("parallel", func(b *testing.B) {
		sched := engine.NewScheduler(s, engine.SchedulerConfig{})
		for i := 0; i < b.N; i++ {
			if _, _, err := sched.Run(context.Background(), q, engine.Opts{Unshared: true}); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(s.BrickCount()), "bricks")
	})
}

// BenchmarkEndToEndGroupBy runs a grouped aggregation through the public
// facade: partitions execute concurrently and each partition's scan is
// brick-parallel, so the whole single-region path is exercised.
func BenchmarkEndToEndGroupBy(b *testing.B) {
	cfg := cubrick.Defaults()
	cfg.Deployment.Policy.InitialPartitions = 4
	cfg.Deployment.Transport.RequestFailureProb = 0
	db, err := cubrick.Open(cfg)
	if err != nil {
		b.Fatal(err)
	}
	schema := cubrick.Schema{
		Dimensions: []cubrick.Dimension{
			{Name: "ds", Max: 64, Buckets: 16},
			{Name: "app", Max: 256, Buckets: 8},
		},
		Metrics: []cubrick.Metric{{Name: "value"}},
	}
	if err := db.CreateTable("events", schema); err != nil {
		b.Fatal(err)
	}
	rnd := randutil.New(13)
	n := 100000
	dims := make([][]uint32, n)
	mets := make([][]float64, n)
	for i := 0; i < n; i++ {
		dims[i] = []uint32{uint32(rnd.Intn(64)), uint32(rnd.Intn(256))}
		mets[i] = []float64{float64(rnd.Intn(1000))}
	}
	if err := db.Load("events", dims, mets); err != nil {
		b.Fatal(err)
	}
	q := &engine.Query{
		Aggregates: []engine.Aggregate{{Func: engine.Sum, Metric: "value"}},
		GroupBy:    []string{"ds"},
	}
	b.ResetTimer()
	var res *cubrick.Result
	for i := 0; i < b.N; i++ {
		res, err = db.QueryStruct("events", q)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(res.Rows)), "groups")
	b.ReportMetric(float64(res.BricksVisited), "bricks_visited")
}

// BenchmarkFig5FanoutLatency regenerates Fig 5: the query latency
// distribution per fan-out level; tails grow with fan-out while medians
// stay flat.
func BenchmarkFig5FanoutLatency(b *testing.B) {
	cfg := sim.DefaultFanoutConfig()
	cfg.QueriesPerLevel = 20000
	var series []sim.FanoutSeries
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		series = sim.FanoutExperiment(cfg)
	}
	first, last := series[0], series[len(series)-1]
	b.ReportMetric(first.Latency.P50*1000, "fanout1_p50_ms")
	b.ReportMetric(first.Latency.P999*1000, "fanout1_p999_ms")
	b.ReportMetric(last.Latency.P50*1000, "fanout64_p50_ms")
	b.ReportMetric(last.Latency.P999*1000, "fanout64_p999_ms")
	b.ReportMetric(last.SuccessRatio*100, "fanout64_success_%")
}
