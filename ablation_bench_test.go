// Ablation benchmarks: each quantifies one design decision the paper
// discusses, comparing the chosen design against its alternative.
package cubrick_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"cubrick/internal/brick"
	"cubrick/internal/cluster"
	"cubrick/internal/core"
	icubrick "cubrick/internal/cubrick"
	"cubrick/internal/engine"
	"cubrick/internal/randutil"
	"cubrick/internal/wall"
)

// BenchmarkAblationShardMapping quantifies §IV-A's mapping choice: the
// naive per-partition hash creates same-table collisions that permanently
// double a host's work for that table; the monotonic mapping eliminates
// them.
func BenchmarkAblationShardMapping(b *testing.B) {
	const tables, parts = 2000, 8
	const maxShards = 10000 // small key space makes the flaw visible
	var naiveCollided, monoCollided int
	for i := 0; i < b.N; i++ {
		naiveCollided, monoCollided = 0, 0
		for ti := 0; ti < tables; ti++ {
			name := fmt.Sprintf("t%d", ti)
			for _, m := range []core.Mapper{core.NaiveMapper{MaxShards: maxShards}, core.MonotonicMapper{MaxShards: maxShards}} {
				seen := make(map[int64]bool)
				collided := false
				for _, sh := range core.Shards(m, name, parts) {
					if seen[sh] {
						collided = true
					}
					seen[sh] = true
				}
				if collided {
					if _, naive := m.(core.NaiveMapper); naive {
						naiveCollided++
					} else {
						monoCollided++
					}
				}
			}
		}
	}
	b.ReportMetric(float64(naiveCollided)/tables*100, "naive_collided_%")
	b.ReportMetric(float64(monoCollided)/tables*100, "monotonic_collided_%")
}

// BenchmarkAblationAdaptiveCompression quantifies §IV-F2's trade: memory
// saved by compressing cold bricks vs. the scan-time decompression cost.
func BenchmarkAblationAdaptiveCompression(b *testing.B) {
	build := func() *brick.Store {
		s, _ := brick.NewStore(brick.Schema{
			Dimensions: []brick.Dimension{
				{Name: "ds", Max: 365, Buckets: 73},
				{Name: "app", Max: 256, Buckets: 16},
			},
			Metrics: []brick.Metric{{Name: "v"}},
		})
		rnd := randutil.New(1)
		for i := 0; i < 50000; i++ {
			s.Insert([]uint32{uint32(rnd.Intn(365)), uint32(rnd.Intn(256))}, []float64{rnd.Float64()})
		}
		return s
	}
	scan := func(s *brick.Store) float64 {
		var sum float64
		s.Scan(nil, func(_ []uint32, m []float64) error { sum += m[0]; return nil })
		return sum
	}

	hot := build()
	cold := build()
	cold.EnsureBudget(0, 0.5) // fully compressed

	b.Run("uncompressed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			scan(hot)
		}
		b.ReportMetric(float64(hot.MemoryBytes())/(1<<20), "resident_MiB")
	})
	b.Run("compressed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			scan(cold)
		}
		b.ReportMetric(float64(cold.MemoryBytes())/(1<<20), "resident_MiB")
		b.ReportMetric(float64(cold.UncompressedBytes())/float64(cold.MemoryBytes()), "compression_ratio")
	})
}

// BenchmarkAblationBrickPruning quantifies granular partitioning's
// index-free pruning: a bucket-aligned filter touches a fraction of the
// bricks a full scan does.
func BenchmarkAblationBrickPruning(b *testing.B) {
	s, _ := brick.NewStore(brick.Schema{
		Dimensions: []brick.Dimension{
			{Name: "ds", Max: 365, Buckets: 73},
			{Name: "app", Max: 64, Buckets: 8},
		},
		Metrics: []brick.Metric{{Name: "v"}},
	})
	rnd := randutil.New(2)
	for i := 0; i < 100000; i++ {
		s.Insert([]uint32{uint32(rnd.Intn(365)), uint32(rnd.Intn(64))}, []float64{1})
	}
	filter := &brick.Filter{Ranges: map[int][2]uint32{0: {0, 4}}} // one ds bucket
	b.Run("full-scan", func(b *testing.B) {
		n := 0
		for i := 0; i < b.N; i++ {
			n = 0
			s.Scan(nil, func([]uint32, []float64) error { n++; return nil })
		}
		b.ReportMetric(float64(n), "rows_visited")
	})
	b.Run("pruned", func(b *testing.B) {
		n := 0
		for i := 0; i < b.N; i++ {
			n = 0
			s.Scan(filter, func([]uint32, []float64) error { n++; return nil })
		}
		b.ReportMetric(float64(n), "rows_visited")
	})
}

// BenchmarkAblationCoordinatorStrategies quantifies §IV-C: coordinator
// load imbalance (max/mean picks per partition) and per-query overhead for
// each of the four strategies.
func BenchmarkAblationCoordinatorStrategies(b *testing.B) {
	const parts = 8
	const queries = 10000
	for _, strat := range []core.CoordinatorStrategy{
		core.AlwaysPartitionZero, core.ForwardFromZero, core.LookupThenRandom, core.CachedRandom,
	} {
		strat := strat
		b.Run(strat.String(), func(b *testing.B) {
			var imbalance float64
			var hops, trips int
			for i := 0; i < b.N; i++ {
				rnd := randutil.New(int64(i + 1))
				picker := &core.Picker{
					Strategy: strat,
					Cache:    core.NewPartitionCountCache(),
					Rand:     rnd.Float64,
					LookupPartitions: func(string) (int, error) {
						trips++
						return parts, nil
					},
				}
				counts := make([]int, parts)
				hops, trips = 0, 0
				for q := 0; q < queries; q++ {
					p, cost, err := picker.Pick("t")
					if err != nil {
						b.Fatal(err)
					}
					counts[p]++
					hops += cost.ExtraHops
				}
				max := 0
				for _, c := range counts {
					if c > max {
						max = c
					}
				}
				imbalance = float64(max) / (float64(queries) / parts)
			}
			b.ReportMetric(imbalance, "coordinator_imbalance")
			b.ReportMetric(float64(hops)/queries, "extra_hops_per_query")
			b.ReportMetric(float64(trips)/queries, "extra_roundtrips_per_query")
		})
	}
}

// BenchmarkAblationMetricGenerations quantifies §IV-F: under compression,
// gen-1 (resident bytes) reports shard sizes that shrink and grow with the
// host's memory pressure, while gen-2 (decompressed bytes) is stable — the
// property load balancing needs.
func BenchmarkAblationMetricGenerations(b *testing.B) {
	cfg := icubrick.DefaultDeploymentConfig()
	cfg.Policy.InitialPartitions = 4
	cfg.Transport.RequestFailureProb = 0
	var gen1Drift, gen2Drift float64
	for i := 0; i < b.N; i++ {
		d, err := icubrick.Open(cfg, time.Date(2021, 1, 1, 0, 0, 0, 0, time.UTC))
		if err != nil {
			b.Fatal(err)
		}
		d.CreateTable("t", benchSchema())
		dims := make([][]uint32, 4000)
		mets := make([][]float64, 4000)
		for j := range dims {
			dims[j] = []uint32{uint32(j) % 30, uint32(j) % 20}
			mets[j] = []float64{float64(j)}
		}
		d.Load("t", dims, mets)
		shard := d.Catalog.ShardOf("t", 0)
		a, _ := d.SM.Assignment(icubrick.ServiceName("east"), shard)
		node, _ := d.Node(a.Primary())

		measure := func(gen icubrick.MetricGeneration) (before, after float64) {
			node.SetMetricGen(gen)
			before = node.ShardLoads()[shard]
			node.CompressAll()
			after = node.ShardLoads()[shard]
			node.DecompressAll()
			return before, after
		}
		b1, a1 := measure(icubrick.Gen1)
		b2, a2 := measure(icubrick.Gen2)
		gen1Drift = relDrift(b1, a1)
		gen2Drift = relDrift(b2, a2)
	}
	b.ReportMetric(gen1Drift*100, "gen1_metric_drift_%")
	b.ReportMetric(gen2Drift*100, "gen2_metric_drift_%")
}

func relDrift(before, after float64) float64 {
	if before == 0 {
		return 0
	}
	d := (before - after) / before
	if d < 0 {
		return -d
	}
	return d
}

func benchSchema() brick.Schema {
	return brick.Schema{
		Dimensions: []brick.Dimension{
			{Name: "ds", Max: 30, Buckets: 6},
			{Name: "app", Max: 20, Buckets: 4},
		},
		Metrics: []brick.Metric{{Name: "value"}},
	}
}

// BenchmarkAblationBestEffortVsExact quantifies §II-C's two scaling
// strategies under failures: exact queries fail when any partition is
// down; best-effort queries always answer but with partial coverage.
func BenchmarkAblationBestEffortVsExact(b *testing.B) {
	cfg := icubrick.DefaultDeploymentConfig()
	cfg.Policy.InitialPartitions = 4
	cfg.RacksPerRegion = 3
	cfg.Transport.RequestFailureProb = 0
	var exactOK, bestOK, coverage float64
	for i := 0; i < b.N; i++ {
		d, err := icubrick.Open(cfg, time.Date(2021, 1, 1, 0, 0, 0, 0, time.UTC))
		if err != nil {
			b.Fatal(err)
		}
		d.CreateTable("t", benchSchema())
		dims := make([][]uint32, 200)
		mets := make([][]float64, 200)
		for j := range dims {
			dims[j] = []uint32{uint32(j) % 30, uint32(j) % 20}
			mets[j] = []float64{1}
		}
		d.Load("t", dims, mets)

		// Kill one in four east hosts.
		east := d.Fleet.Region("east")
		for j, h := range east {
			if j%4 == 0 {
				h.SetState(cluster.Down)
			}
		}
		q := &engine.Query{Aggregates: []engine.Aggregate{{Func: engine.Count, Alias: "n"}}}
		const trials = 50
		var eOK, bOK int
		var cov float64
		for t := 0; t < trials; t++ {
			if _, err := d.Query(context.Background(), "east", "t", q, 0); err == nil {
				eOK++
			}
			if res, err := d.QueryBestEffort(context.Background(), "east", "t", q, 0); err == nil {
				bOK++
				cov += res.Coverage
			}
		}
		exactOK = float64(eOK) / trials
		bestOK = float64(bOK) / trials
		coverage = cov / float64(bOK)
	}
	b.ReportMetric(exactOK*100, "exact_success_%")
	b.ReportMetric(bestOK*100, "besteffort_success_%")
	b.ReportMetric(coverage*100, "besteffort_coverage_%")
}

// BenchmarkAblationPartialVsFullSharding is the headline ablation: success
// ratio of a bounded-fan-out (partial) vs cluster-wide (full) query as the
// cluster grows past the wall.
func BenchmarkAblationPartialVsFullSharding(b *testing.B) {
	const p = 1e-4
	const partitions = 8
	rnd := randutil.New(1)
	var full1024, partial1024 float64
	for i := 0; i < b.N; i++ {
		full1024 = wall.Simulate(p, 1024, 20000, rnd)
		partial1024 = wall.Simulate(p, partitions, 20000, rnd)
	}
	b.ReportMetric(full1024*100, "full_success_at_1024_%")
	b.ReportMetric(partial1024*100, "partial_success_at_1024_%")
}
