package brick

import (
	"testing"

	"cubrick/internal/randutil"
)

// mixedStore builds the benchmark rig's table shape in miniature: four
// dimensions cut into 16×4×4×1 = 256 bricks of ~rowsPerBrick rows, two
// metrics, every brick compressed to the given tier ("encoded" or
// "evicted").
func mixedStore(tb testing.TB, rowsPerBrick int, tier string) *Store {
	tb.Helper()
	s, err := NewStore(Schema{
		Dimensions: []Dimension{
			{Name: "ds", Max: 128, Buckets: 16},
			{Name: "region", Max: 16, Buckets: 4},
			{Name: "app", Max: 1024, Buckets: 4},
			{Name: "kind", Max: 64, Buckets: 1},
		},
		Metrics: []Metric{{Name: "value"}, {Name: "samples"}},
	})
	if err != nil {
		tb.Fatal(err)
	}
	rnd := randutil.New(25)
	n := 256 * rowsPerBrick
	dims := [][]uint32{make([]uint32, n), make([]uint32, n), make([]uint32, n), make([]uint32, n)}
	mets := [][]float64{make([]float64, n), make([]float64, n)}
	for i := 0; i < n; i++ {
		dims[0][i] = uint32(i * 128 / n) // loaded in ds order: runs
		dims[1][i] = uint32(rnd.Intn(16))
		dims[2][i] = uint32(rnd.Intn(1024))
		dims[3][i] = uint32(rnd.Intn(8)) * 8 // sparse low-card: dict
		mets[0][i] = float64(rnd.Intn(1<<20)) / 8
		mets[1][i] = float64(1 + rnd.Intn(4))
	}
	if err := s.InsertBatch(dims, mets); err != nil {
		tb.Fatal(err)
	}
	for _, e := range s.snapshotBricks() {
		var err error
		if tier == "evicted" {
			err = e.b.Evict()
		} else {
			err = e.b.Compress()
		}
		if err != nil {
			tb.Fatal(err)
		}
	}
	return s
}

// mixedShapes are twelve projections an ad-hoc mix of queries draws over
// mixedStore: filter columns needed, the grouped column delivered encoded,
// the rest skipped, over both metric subsets.
func mixedShapes() []*Projection {
	const s, n, g = ColSkip, ColNeed, ColGroupEncoded
	return []*Projection{
		{Dims: []ColRequest{n, s, n, g}, Metrics: []bool{true, false}},
		{Dims: []ColRequest{s, s, n, g}, Metrics: []bool{true, false}},
		{Dims: []ColRequest{n, g, n, s}, Metrics: []bool{true, true}},
		{Dims: []ColRequest{s, g, s, s}, Metrics: []bool{false, true}},
		{Dims: []ColRequest{n, s, g, s}, Metrics: []bool{true, false}},
		{Dims: []ColRequest{s, s, g, s}, Metrics: []bool{true, true}},
		{Dims: []ColRequest{g, s, n, s}, Metrics: []bool{false, true}},
		{Dims: []ColRequest{g, n, s, s}, Metrics: []bool{true, false}},
		{Dims: []ColRequest{n, n, n, g}, Metrics: []bool{true, true}},
		{Dims: []ColRequest{s, n, s, g}, Metrics: []bool{false, false}},
		{Dims: []ColRequest{g, s, s, g}, Metrics: []bool{true, false}},
		{Dims: []ColRequest{n, g, n, n}, Metrics: []bool{false, true}},
	}
}

// BenchmarkVisitBrickMixedProjections is the per-brick fixed cost of a scan
// under ad-hoc traffic: 256 compressed bricks of ~400 rows visited pass
// after pass, each pass with the next of twelve projection shapes, through
// a decoded-column cache budgeted at a fifth of (shapes × fully decoded
// size) — the ratio at which a cache keyed per shape thrashes. One op is
// one brick visit; inflations/visit counts evicted-tier blob reads.
func BenchmarkVisitBrickMixedProjections(b *testing.B) {
	const rowsPerBrick = 400
	for _, tier := range []string{"encoded", "evicted"} {
		b.Run(tier, func(b *testing.B) {
			s := mixedStore(b, rowsPerBrick, tier)
			shapes := mixedShapes()
			decoded := s.Rows() * s.Schema().RowBytes()
			dc := NewDecodedCache(decoded * int64(len(shapes)) / 5)
			s.SetDecodedCache(dc)
			plan, err := s.PlanScan(nil)
			if err != nil {
				b.Fatal(err)
			}
			tasks := plan.Tasks
			var rows int
			visit := func(i int) {
				proj := shapes[i/len(tasks)%len(shapes)]
				if err := tasks[i%len(tasks)].VisitBatch(proj, func(batch *Batch) error {
					rows += batch.Rows
					return nil
				}); err != nil {
					b.Fatal(err)
				}
			}
			// One round of every shape first: steady state, not first fill.
			for i := 0; i < len(tasks)*len(shapes); i++ {
				visit(i)
			}
			before, reads := dc.Stats(), s.SSDReads()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				visit(i)
			}
			b.StopTimer()
			after := dc.Stats()
			b.ReportMetric(float64(s.SSDReads()-reads)/float64(b.N), "inflations/visit")
			b.ReportMetric(float64(after.Hits-before.Hits)/float64(b.N), "hits/visit")
			b.ReportMetric(float64(after.Entries), "entries")
			b.ReportMetric(float64(after.Bytes)/1e6, "cache_MB")
		})
	}
}
