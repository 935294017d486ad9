package engine

import (
	"testing"

	"cubrick/internal/brick"
	"cubrick/internal/randutil"
)

// coordinatorPartials returns 16 wire partials shaped like a wide_fanout
// query's: GROUP BY app, kind with SUM and COUNT, about 70 groups per
// partition, neighbouring partitions sharing a few apps, so merging all 16
// builds about a thousand groups.
func coordinatorPartials(tb testing.TB) (*Query, [][]byte) {
	tb.Helper()
	q := &Query{Aggregates: []Aggregate{{Func: Sum, Metric: "value"}, {Func: Count}}, GroupBy: []string{"app", "kind"}}
	schema := brick.Schema{
		Dimensions: []brick.Dimension{{Name: "app", Max: 1024, Buckets: 4}, {Name: "kind", Max: 64, Buckets: 1}},
		Metrics:    []brick.Metric{{Name: "value"}},
	}
	rnd := randutil.New(16)
	var blobs [][]byte
	for part := 0; part < 16; part++ {
		s, err := brick.NewStore(schema)
		if err != nil {
			tb.Fatal(err)
		}
		for r := 0; r < 300; r++ {
			dims := []uint32{uint32(part*22 + rnd.Intn(24)), uint32(rnd.Intn(3))}
			if err := s.Insert(dims, []float64{rnd.Float64() * 100}); err != nil {
				tb.Fatal(err)
			}
		}
		p, err := runQuery(s, q)
		if err != nil {
			tb.Fatal(err)
		}
		blob, err := p.MarshalBinary()
		if err != nil {
			tb.Fatal(err)
		}
		blobs = append(blobs, blob)
	}
	return q, blobs
}

// mergeAndFinalize is the coordinator's work on one query once the blobs
// have arrived: fold every blob into one accumulator, then finalize.
func mergeAndFinalize(tb testing.TB, q *Query, blobs [][]byte) *Result {
	p := NewPartial(q)
	for _, blob := range blobs {
		if err := MergeWire(p, blob); err != nil {
			tb.Fatal(err)
		}
	}
	return p.Finalize()
}

// BenchmarkCoordinatorMerge16 measures merging 16 wide_fanout-shaped
// partials and finalizing the result (run with -benchmem).
func BenchmarkCoordinatorMerge16(b *testing.B) {
	q, blobs := coordinatorPartials(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mergeAndFinalize(b, q, blobs)
	}
}

// TestCoordinatorMergeAllocs is the allocation ceiling check.sh enforces
// on the coordinator's merge and finalize: groups live in one slab, rows in
// one flat array, so the cost is a per-query constant however many groups
// the partials hold.
func TestCoordinatorMergeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const ceiling = 64
	q, blobs := coordinatorPartials(t)
	if n := len(mergeAndFinalize(t, q, blobs).Rows); n < 900 {
		t.Fatalf("the merge holds %d groups, want about a thousand", n)
	}
	allocs := testing.AllocsPerRun(20, func() { mergeAndFinalize(t, q, blobs) })
	t.Logf("%.0f allocs per merge of %d partials", allocs, len(blobs))
	if allocs > ceiling {
		t.Fatalf("%.0f allocs per merge of %d partials, ceiling %d", allocs, len(blobs), ceiling)
	}
}
