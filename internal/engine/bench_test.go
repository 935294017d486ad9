package engine

import (
	"context"
	"testing"

	"cubrick/internal/brick"
	"cubrick/internal/randutil"
)

func benchFactStore(b *testing.B, rows int) *brick.Store {
	b.Helper()
	s, err := brick.NewStore(factSchema())
	if err != nil {
		b.Fatal(err)
	}
	rnd := randutil.New(1)
	for i := 0; i < rows; i++ {
		s.Insert([]uint32{uint32(rnd.Intn(10)), uint32(rnd.Intn(20))}, []float64{rnd.Float64()})
	}
	return s
}

func BenchmarkMergePartials(b *testing.B) {
	s := benchFactStore(b, 50000)
	q := &Query{Aggregates: []Aggregate{{Func: Sum, Metric: "value"}}, GroupBy: []string{"app"}}
	partials := make([]*Partial, 8)
	for i := range partials {
		p, err := runQuery(s, q)
		if err != nil {
			b.Fatal(err)
		}
		partials[i] = p
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		merged := NewPartial(q)
		for _, p := range partials {
			if err := merged.Merge(p); err != nil {
				b.Fatal(err)
			}
		}
		merged.Finalize()
	}
}

// parallelBenchSchema spreads rows over 128 bricks so brick-level
// parallelism has morsels to distribute.
func parallelBenchSchema() brick.Schema {
	return brick.Schema{
		Dimensions: []brick.Dimension{
			{Name: "ds", Max: 64, Buckets: 16},
			{Name: "app", Max: 256, Buckets: 8},
			{Name: "country", Max: 32, Buckets: 1},
		},
		Metrics: []brick.Metric{{Name: "value"}},
	}
}

func benchParallelStore(b *testing.B, rows int) *brick.Store {
	b.Helper()
	s, err := brick.NewStore(parallelBenchSchema())
	if err != nil {
		b.Fatal(err)
	}
	rnd := randutil.New(7)
	for i := 0; i < rows; i++ {
		s.Insert(
			[]uint32{uint32(rnd.Intn(64)), uint32(rnd.Intn(256)), uint32(rnd.Intn(32))},
			[]float64{float64(rnd.Intn(1000))},
		)
	}
	return s
}

func benchGroupedQuery() *Query {
	return &Query{
		Aggregates: []Aggregate{{Func: Sum, Metric: "value"}, {Func: Avg, Metric: "value"}},
		GroupBy:    []string{"ds", "app"},
	}
}

// BenchmarkRun is the brick-parallel vectorized path on a
// multi-brick grouped-aggregation workload.
func BenchmarkRun(b *testing.B) {
	s := benchParallelStore(b, 200000)
	q := benchGroupedQuery()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := runPartial(context.Background(), s, q, Opts{}); err != nil {
			b.Fatal(err)
		}
	}
}

// benchKernel times the vectorized kernel on a single worker, isolating
// kernel throughput from thread scaling.
func benchKernel(b *testing.B, q *Query) {
	s := benchParallelStore(b, 200000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := runPartial(context.Background(), s, q, Opts{Parallelism: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKernelGlobal exercises the scalar global-aggregate kernel (no
// map, no key materialization).
func BenchmarkKernelGlobal(b *testing.B) {
	benchKernel(b, &Query{Aggregates: []Aggregate{
		{Func: Sum, Metric: "value"}, {Func: Count}, {Func: Min, Metric: "value"},
	}})
}

// BenchmarkKernelGroupBy1 exercises the uint32-keyed single-dimension kernel.
func BenchmarkKernelGroupBy1(b *testing.B) {
	benchKernel(b, &Query{
		Aggregates: []Aggregate{{Func: Sum, Metric: "value"}},
		GroupBy:    []string{"app"},
	})
}

// BenchmarkKernelGroupBy2 groups by two dimensions: each brick's 128-point
// domain is dense, and the combiner finds the groups of the 16 384-point
// schema domain through the hashed kernel.
func BenchmarkKernelGroupBy2(b *testing.B) {
	benchKernel(b, &Query{
		Aggregates: []Aggregate{{Func: Sum, Metric: "value"}},
		GroupBy:    []string{"ds", "app"},
	})
}

// BenchmarkKernelGroupByWide groups by three dimensions: each brick's
// 4 096-point domain just fits the dense kernel, and the combiner hashes
// keys of arity 3 (slots hold a hash, confirmed against the slab's keys).
func BenchmarkKernelGroupByWide(b *testing.B) {
	benchKernel(b, &Query{
		Aggregates: []Aggregate{{Func: Sum, Metric: "value"}},
		GroupBy:    []string{"ds", "app", "country"},
	})
}

func BenchmarkStarJoin(b *testing.B) {
	fact := benchFactStore(b, 100000)
	dim, _ := brick.NewStore(dimSchema())
	for app := uint32(0); app < 20; app++ {
		dim.Insert([]uint32{app, app % 4, app % 3}, nil)
	}
	q := &Query{
		Aggregates: []Aggregate{{Func: Sum, Metric: "value"}},
		GroupBy:    []string{"team"},
	}
	js := &JoinSpec{Table: "apps", On: "app", Attrs: []string{"team"}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := joinPartial(fact, dim, q, js); err != nil {
			b.Fatal(err)
		}
	}
}
