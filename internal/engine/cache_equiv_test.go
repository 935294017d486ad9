package engine

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"

	"cubrick/internal/brick"
	"cubrick/internal/randutil"
)

// TestCachedColdEquivalence is the property test for the caching tier:
// over 30 generated trials — schemas, data, tier mixes (raw, encoded,
// evicted bricks) and queries covering every kernel including
// CountDistinct's HLL sketches — executing through the decoded-column
// cache (twice: a fill pass and a hit pass) must equal the oracle bit for
// bit, before and after additional ingest and compaction.
func TestCachedColdEquivalence(t *testing.T) {
	rnd := randutil.New(20260808)
	for trial := 0; trial < 30; trial++ {
		s, q := Oracle.NewTrial(t, rnd, false)
		schema := s.Schema()
		dc := brick.NewDecodedCache(8 << 20)
		s.SetDecodedCache(dc)

		check := func(stage string) {
			want := reference(t, q, s)
			// The first cached run fills the decoded-column cache for the
			// compressed bricks it decodes, the second must hit it.
			for run, name := range []string{"fill", "hit"} {
				before := dc.Stats().Hits
				p, _, err := runPartial(context.Background(), s, q, Opts{})
				if err != nil {
					t.Fatalf("trial %d %s %s: %v", trial, stage, name, err)
				}
				if run == 1 && p.Decompressions > 0 && dc.Stats().Hits == before {
					t.Fatalf("trial %d %s: repeat query got no decoded-cache hits over %d compressed visits", trial, stage, p.Decompressions)
				}
				if err := Oracle.Equal(want, p.Finalize()); err != nil {
					t.Fatalf("trial %d %s %s: %v", trial, stage, name, err)
				}
			}
		}
		check("initial")

		// Interleave more ingest (and sometimes compaction) and re-check:
		// the epoch bump must orphan exactly the affected bricks' entries
		// and never serve them stale.
		dims, mets := make([]uint32, len(schema.Dimensions)), make([]float64, len(schema.Metrics))
		for r, n := 0, 50+rnd.Intn(500); r < n; r++ {
			for d := range dims {
				dims[d] = uint32(rnd.Intn(int(schema.Dimensions[d].Max)))
			}
			for m := range mets {
				mets[m] = rnd.Float64() * 1e3
			}
			if err := s.Insert(dims, mets); err != nil {
				t.Fatalf("trial %d insert: %v", trial, err)
			}
		}
		if rnd.Intn(2) == 0 {
			s.DecayHotness(rnd.Float64())
			if _, err := s.CompactOnce(brick.CompactionConfig{EncodeBelow: rnd.Float64() * 2, EvictBelow: rnd.Float64()}); err != nil {
				t.Fatalf("trial %d compact: %v", trial, err)
			}
		}
		check("after-ingest")
	}
}

// TestConcurrentIngestCachedFreshness runs cached query replay against a
// store under concurrent ingest (run with -race), compressing every brick
// now and then so visits read through the decoded-column cache: every query
// issued after the ingester has committed k batches must observe at least
// the rows of those k batches — decoded columns cached before an ingest may
// never stand in for a brick that has since grown.
func TestConcurrentIngestCachedFreshness(t *testing.T) {
	schema := brick.Schema{
		Dimensions: []brick.Dimension{{Name: "d0", Max: 16, Buckets: 4}},
		Metrics:    []brick.Metric{{Name: "m0"}},
	}
	s, err := brick.NewStore(schema)
	if err != nil {
		t.Fatal(err)
	}
	dc := brick.NewDecodedCache(4 << 20)
	s.SetDecodedCache(dc)

	const batches = 60
	const batchRows = 40
	var committed atomic.Int64 // batches fully inserted
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rnd := randutil.New(7)
		for b := 0; b < batches; b++ {
			dims := [][]uint32{make([]uint32, batchRows)}
			mets := [][]float64{make([]float64, batchRows)}
			for r := range batchRows {
				dims[0][r] = uint32(rnd.Intn(16))
				mets[0][r] = 1
			}
			if err := s.InsertBatch(dims, mets); err != nil {
				t.Errorf("ingest: %v", err)
				return
			}
			committed.Add(1)
		}
	}()

	q := &Query{Aggregates: []Aggregate{{Func: Count}, {Func: Sum, Metric: "m0"}}}
	waitFor(t, func() bool { return committed.Load() > 0 })
	for i := 0; i < 400; i++ {
		if i%20 == 0 {
			if _, _, err := s.EnsureBudget(0, 0.5); err != nil {
				t.Fatalf("query %d compress: %v", i, err)
			}
		}
		floor := committed.Load() * batchRows
		p, _, err := runPartial(context.Background(), s, q, Opts{})
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		res := p.Finalize()
		if got := res.Rows[0][0]; got < float64(floor) {
			t.Fatalf("query %d: count %v below committed floor %d — stale cache entry served past an ingest epoch", i, got, floor)
		}
	}
	wg.Wait()

	// Quiesced and compressed: the answer read through the decoded cache,
	// filling it and then hitting it, must equal the exact final count.
	if _, _, err := s.EnsureBudget(0, 0.5); err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 2; run++ {
		p, _, err := runPartial(context.Background(), s, q, Opts{})
		if err != nil {
			t.Fatal(err)
		}
		if got := p.Finalize().Rows[0]; got[0] != float64(batches*batchRows) || got[1] != got[0] {
			t.Fatalf("final run %d: count, sum %v, want %d", run, got, batches*batchRows)
		}
	}
	if st := dc.Stats(); st.Hits == 0 || st.Misses == 0 {
		t.Fatalf("queries never read through the decoded-column cache: %+v", st)
	}
}

// TestDecodedCacheShapeSequenceEquivalence drives one compressed store with
// a long random sequence of query shapes — the ad-hoc traffic whose
// projections all share a brick's one decoded-cache entry — under a budget
// small enough that entries are evicted and rebuilt mid-sequence. Every
// brick visit goes through the decoded cache, and every answer must be
// bit-identical to the oracle's, which bypasses the cache.
func TestDecodedCacheShapeSequenceEquivalence(t *testing.T) {
	schema := brick.Schema{
		Dimensions: []brick.Dimension{
			{Name: "ds", Max: 64, Buckets: 8},
			{Name: "region", Max: 8, Buckets: 2},
			{Name: "app", Max: 256, Buckets: 4},
		},
		Metrics: []brick.Metric{{Name: "value"}, {Name: "samples"}},
	}
	s, err := brick.NewStore(schema)
	if err != nil {
		t.Fatal(err)
	}
	rnd := randutil.New(25)
	const rows = 20000
	for r := 0; r < rows; r++ {
		dims := []uint32{uint32(r * 64 / rows), uint32(rnd.Intn(8)), uint32(rnd.Intn(16)) * 16}
		if err := s.Insert(dims, []float64{rnd.Float64() * 1e3, float64(1 + rnd.Intn(3))}); err != nil {
			t.Fatal(err)
		}
	}
	// Everything encoded; then a scan heats the older half of the table and
	// the half it left cold is evicted behind flate as well.
	s.DecayHotness(0)
	if _, err := s.CompactOnce(brick.CompactionConfig{EncodeBelow: 1}); err != nil {
		t.Fatal(err)
	}
	heat := &Query{Aggregates: []Aggregate{{Func: Count}}, Filter: map[string][2]uint32{"ds": {0, 31}}}
	if _, _, err := runPartial(context.Background(), s, heat, Opts{NoCache: true}); err != nil {
		t.Fatal(err)
	}
	if st, err := s.CompactOnce(brick.CompactionConfig{EvictBelow: 1}); err != nil || st.Evicted == 0 || st.Evicted == s.BrickCount() {
		t.Fatalf("evicted %d of %d bricks (err %v), want a mix of tiers", st.Evicted, s.BrickCount(), err)
	}
	// A quarter of the fully decoded table: whole-brick entries keep
	// falling out while the sequence revisits them.
	dc := brick.NewDecodedCache(rows * schema.RowBytes() / 4)
	s.SetDecodedCache(dc)

	aggFuncs := []AggFunc{Sum, Count, Min, Max, Avg, CountDistinct}
	for i := 0; i < 150; i++ {
		q := &Query{}
		for a, n := 0, 1+rnd.Intn(3); a < n; a++ {
			agg := Aggregate{Func: aggFuncs[rnd.Intn(len(aggFuncs))]}
			if agg.Func == CountDistinct {
				agg.Metric = schema.Dimensions[rnd.Intn(3)].Name
			} else if agg.Func != Count {
				agg.Metric = schema.Metrics[rnd.Intn(2)].Name
			}
			q.Aggregates = append(q.Aggregates, agg)
		}
		for _, d := range rnd.Perm(3)[:rnd.Intn(3)] {
			q.GroupBy = append(q.GroupBy, schema.Dimensions[d].Name)
		}
		for _, d := range rnd.Perm(3)[:rnd.Intn(3)] {
			dim := schema.Dimensions[d]
			lo := uint32(rnd.Intn(int(dim.Max)))
			if q.Filter == nil {
				q.Filter = map[string][2]uint32{}
			}
			q.Filter[dim.Name] = [2]uint32{lo, lo + uint32(rnd.Intn(int(dim.Max-lo)))}
		}
		p, _, err := runPartial(context.Background(), s, q, Opts{})
		if err != nil {
			t.Fatalf("query %d cached: %v", i, err)
		}
		if err := Oracle.Equal(reference(t, q, s), p.Finalize()); err != nil {
			t.Fatalf("query %d (%+v) cached vs oracle: %v", i, q, err)
		}
	}
	st := dc.Stats()
	if st.Evictions == 0 || st.Hits == 0 || st.Entries > s.BrickCount() {
		t.Fatalf("want evictions and hits over at most %d entries, got %+v", s.BrickCount(), st)
	}
}
