package engine

import (
	"context"
	"math/rand"
	"testing"

	"cubrick/internal/brick"
)

// adhocSchema is the benchmark rig's table: ds 128/16, region 16/4,
// app 1024/4, kind 64/1 — 256 bricks per partition.
func adhocSchema() brick.Schema {
	return brick.Schema{
		Dimensions: []brick.Dimension{
			{Name: "ds", Max: 128, Buckets: 16},
			{Name: "region", Max: 16, Buckets: 4},
			{Name: "app", Max: 1024, Buckets: 4},
			{Name: "kind", Max: 64, Buckets: 1},
		},
		Metrics: []brick.Metric{{Name: "value"}, {Name: "samples"}},
	}
}

// adhocPartition loads one adhoc_scan partition: rows drawn like the rig's
// initial load (ds below the ingest bucket, region and kind uniform, app
// zipf-valued, small integer metrics), every brick encoded, behind a
// 32 MiB decoded-column cache.
func adhocPartition(tb testing.TB, rows int) *brick.Store {
	tb.Helper()
	s, err := brick.NewStore(adhocSchema())
	if err != nil {
		tb.Fatal(err)
	}
	r := rand.New(rand.NewSource(1))
	app := rand.NewZipf(r, 1.1, 16, 1023)
	for i := 0; i < rows; i++ {
		dims := []uint32{uint32(r.Intn(120)), uint32(r.Intn(16)), uint32(app.Uint64()), uint32(r.Intn(64))}
		if err := s.Insert(dims, []float64{float64(r.Intn(1000)), float64(1 + r.Intn(9))}); err != nil {
			tb.Fatal(err)
		}
	}
	if _, _, err := s.EnsureBudget(0, 0.5); err != nil {
		tb.Fatal(err)
	}
	s.SetDecodedCache(brick.NewDecodedCache(32 << 20))
	return s
}

// adhocQueries draws n queries shaped like the rig's adhoc_scan stream: one
// to three aggregates, GROUP BY one of region, kind or app, an app range 64
// to 511 wide and a ds window 16 to 64 wide whose ends fall inside ds
// buckets.
func adhocQueries(n int) []*Query {
	r := rand.New(rand.NewSource(2))
	menu := []Aggregate{
		{Func: Sum, Metric: "value"}, {Func: Count}, {Func: Min, Metric: "value"},
		{Func: Max, Metric: "value"}, {Func: Avg, Metric: "value"}, {Func: Sum, Metric: "samples"},
		{Func: Max, Metric: "samples"}, {Func: Avg, Metric: "samples"},
	}
	groups := []string{"region", "kind", "app"}
	qs := make([]*Query, n)
	for i := range qs {
		q := &Query{GroupBy: []string{groups[r.Intn(len(groups))]}}
		for _, j := range r.Perm(len(menu))[:1+r.Intn(3)] {
			q.Aggregates = append(q.Aggregates, menu[j])
		}
		appW := uint32(64 + r.Intn(448))
		appLo := uint32(r.Intn(int(1024 - appW + 1)))
		var dsLo, dsHi uint32
		for {
			w := uint32(16 + r.Intn(49))
			dsLo = uint32(r.Intn(int(128 - w + 1)))
			dsHi = dsLo + w - 1
			if dsLo%8 != 0 && (dsHi+1)%8 != 0 {
				break
			}
		}
		q.Filter = map[string][2]uint32{"app": {appLo, appLo + appW - 1}, "ds": {dsLo, dsHi}}
		qs[i] = q
	}
	return qs
}

// BenchmarkRunAdhocPartition is the engine's share of one adhoc_scan
// /partial: Scheduler.Run of unique one-dimension GROUP BY queries under
// app and unaligned ds filters over one 100k-row encoded partition, two
// pass workers. Run with -benchmem: allocations per call are what the
// aggregation kernels' group state costs.
func BenchmarkRunAdhocPartition(b *testing.B) {
	s := adhocPartition(b, 100_000)
	qs := adhocQueries(256)
	sched := NewScheduler(s, SchedulerConfig{Parallelism: 2})
	ctx := context.Background()
	for _, q := range qs { // warm the decoded-column cache
		if _, _, err := sched.Run(ctx, q, Opts{}); err != nil {
			b.Fatal(err)
		}
	}
	var rows int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, _, err := sched.Run(ctx, qs[i%len(qs)], Opts{})
		if err != nil {
			b.Fatal(err)
		}
		rows += p.RowsScanned
	}
	b.ReportMetric(float64(rows)/float64(b.N), "rows/op")
}
