package engine

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"cubrick/internal/brick"
	"cubrick/internal/randutil"
)

// normalizeDecomp zeroes the one counter that legitimately differs between
// cached and cold executions: a decoded-column or brick-partial cache hit
// skips the transient decode a cold run pays, so Decompressions is a cost
// metric, not part of the answer. Everything else — rows, groups, HLL
// cardinalities, scan accounting — must stay bit-identical.
func normalizeDecomp(r *Result) *Result {
	r.Decompressions = 0
	return r
}

// TestCachedColdEquivalence is the property test for the caching tier:
// over 30 random trials — random schemas, data, ingest interleavings,
// compaction states (raw, encoded, evicted bricks), and queries covering
// every kernel including CountDistinct's HLL sketches — executing with the
// brick-partial and decoded-column caches enabled (twice: a fill pass and
// a hit pass) must finalize to exactly the same Result as the fully
// uncached path, before and after additional ingest.
func TestCachedColdEquivalence(t *testing.T) {
	rnd := randutil.New(20260808)
	aggFuncs := []AggFunc{Sum, Count, Min, Max, Avg, CountDistinct}
	for trial := 0; trial < 30; trial++ {
		nDims := 1 + rnd.Intn(3)
		schema := brick.Schema{}
		for d := 0; d < nDims; d++ {
			max := uint32(2 + rnd.Intn(30))
			buckets := uint32(1 + rnd.Intn(int(max)))
			schema.Dimensions = append(schema.Dimensions, brick.Dimension{
				Name: fmt.Sprintf("d%d", d), Max: max, Buckets: buckets,
			})
		}
		nMetrics := 1 + rnd.Intn(2)
		for m := 0; m < nMetrics; m++ {
			schema.Metrics = append(schema.Metrics, brick.Metric{Name: fmt.Sprintf("m%d", m)})
		}
		s, err := brick.NewStore(schema)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		dc := brick.NewDecodedCache(8 << 20)
		s.SetDecodedCache(dc)
		cached := NewScheduler(s, SchedulerConfig{BrickCache: NewBrickCache(8 << 20), CacheScope: fmt.Sprintf("t%d", trial)})

		ingest := func(rows int) {
			dimVals := make([]uint32, nDims)
			metVals := make([]float64, nMetrics)
			for r := 0; r < rows; r++ {
				for d := range dimVals {
					dimVals[d] = uint32(rnd.Intn(int(schema.Dimensions[d].Max)))
				}
				for m := range metVals {
					metVals[m] = float64(rnd.Intn(1<<16)) / 4
				}
				if err := s.Insert(dimVals, metVals); err != nil {
					t.Fatalf("trial %d insert: %v", trial, err)
				}
			}
		}
		// Random compaction state: encode (and sometimes flate+evict) a
		// random fraction of bricks so the trial mix covers all three tiers.
		compact := func() {
			s.DecayHotness(rnd.Float64())
			cfg := brick.CompactionConfig{EncodeBelow: rnd.Float64() * 2}
			if rnd.Intn(2) == 0 {
				cfg.EvictBelow = rnd.Float64()
			}
			if _, err := s.CompactOnce(cfg); err != nil {
				t.Fatalf("trial %d compact: %v", trial, err)
			}
		}

		ingest(100 + rnd.Intn(1500))
		if rnd.Intn(3) > 0 {
			compact()
		}

		q := &Query{}
		nAggs := 1 + rnd.Intn(3)
		for a := 0; a < nAggs; a++ {
			fn := aggFuncs[rnd.Intn(len(aggFuncs))]
			agg := Aggregate{Func: fn}
			if fn == CountDistinct {
				agg.Metric = schema.Dimensions[rnd.Intn(nDims)].Name
			} else if fn != Count {
				agg.Metric = schema.Metrics[rnd.Intn(nMetrics)].Name
			}
			q.Aggregates = append(q.Aggregates, agg)
		}
		if rnd.Intn(4) > 0 {
			q.GroupBy = []string{schema.Dimensions[rnd.Intn(nDims)].Name}
		}
		if rnd.Intn(2) == 0 {
			d := schema.Dimensions[rnd.Intn(nDims)]
			lo := uint32(rnd.Intn(int(d.Max)))
			hi := lo + uint32(rnd.Intn(int(d.Max-lo)))
			q.Filter = map[string][2]uint32{d.Name: {lo, hi}}
		}
		if len(q.GroupBy) > 0 && rnd.Intn(2) == 0 {
			q.OrderBy = q.Aggregates[0].Name()
			q.Desc = rnd.Intn(2) == 0
			q.Limit = 1 + rnd.Intn(10)
		}

		check := func(stage string) {
			coldP, _, err := runUnshared(s, q, 0, Opts{NoCache: true})
			if err != nil {
				t.Fatalf("trial %d %s cold: %v", trial, stage, err)
			}
			cold := normalizeDecomp(coldP.Finalize())
			// Second-touch admission: the first cached run only marks the
			// doorkeeper, the second fills, the third must hit. Every run's
			// answer is compared, whatever it was served from.
			for run, name := range []string{"first", "fill", "hit"} {
				p, info, err := cached.Run(context.Background(), q, Opts{Unshared: true})
				if err != nil {
					t.Fatalf("trial %d %s %s: %v", trial, stage, name, err)
				}
				if run == 2 && info.CacheHits == 0 && s.BrickCount() > 0 {
					t.Fatalf("trial %d %s: repeat query got no cache hits over %d bricks", trial, stage, s.BrickCount())
				}
				if err := resultsEqual(cold, normalizeDecomp(p.Finalize())); err != nil {
					t.Fatalf("trial %d %s %s vs cold: %v", trial, stage, name, err)
				}
			}
		}
		check("initial")

		// Interleave more ingest (and sometimes compaction) and re-check:
		// the epoch bump must orphan exactly the affected bricks' entries,
		// never serve them stale, and never corrupt cached snapshots the
		// earlier passes already consumed.
		ingest(50 + rnd.Intn(500))
		if rnd.Intn(2) == 0 {
			compact()
		}
		check("after-ingest")
	}
}

// TestConcurrentIngestCachedFreshness runs cached query replay against a
// store under concurrent ingest (run with -race): every query issued after
// the ingester has committed k batches must observe at least the rows of
// those k batches — a cached partial from before an ingest may never stand
// in for a brick that has since grown.
func TestConcurrentIngestCachedFreshness(t *testing.T) {
	schema := brick.Schema{
		Dimensions: []brick.Dimension{{Name: "d0", Max: 16, Buckets: 4}},
		Metrics:    []brick.Metric{{Name: "m0"}},
	}
	s, err := brick.NewStore(schema)
	if err != nil {
		t.Fatal(err)
	}
	s.SetDecodedCache(brick.NewDecodedCache(4 << 20))
	cached := NewScheduler(s, SchedulerConfig{BrickCache: NewBrickCache(4 << 20), CacheScope: "live"})

	const batches = 60
	const batchRows = 40
	var committed atomic.Int64 // batches fully inserted
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rnd := randutil.New(7)
		for b := 0; b < batches; b++ {
			dims := make([][]uint32, batchRows)
			mets := make([][]float64, batchRows)
			for r := range dims {
				dims[r] = []uint32{uint32(rnd.Intn(16))}
				mets[r] = []float64{1}
			}
			if err := s.InsertBatchRows(dims, mets); err != nil {
				t.Errorf("ingest: %v", err)
				return
			}
			committed.Add(1)
		}
	}()

	q := &Query{Aggregates: []Aggregate{{Func: Count}}}
	for i := 0; i < 400; i++ {
		floor := committed.Load() * batchRows
		p, _, err := cached.Run(context.Background(), q, Opts{Unshared: true})
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		res := p.Finalize()
		if got := res.Rows[0][0]; got < float64(floor) {
			t.Fatalf("query %d: count %v below committed floor %d — stale cache entry served past an ingest epoch", i, got, floor)
		}
	}
	wg.Wait()

	// Quiesced: the cached answer must equal the exact final count.
	p, _, err := cached.Run(context.Background(), q, Opts{Unshared: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Finalize().Rows[0][0]; got != float64(batches*batchRows) {
		t.Fatalf("final count %v, want %d", got, batches*batchRows)
	}
}

// TestDecodedCacheShapeSequenceEquivalence drives one compressed store with
// a long random sequence of query shapes — the ad-hoc traffic whose
// projections all share a brick's one decoded-cache entry — under a budget
// small enough that entries are evicted and rebuilt mid-sequence. With the
// brick-partial cache off every brick visit goes through the decoded cache,
// and every answer must be bit-identical to the cache-bypassed run.
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
		if err := s.Insert(dims, []float64{float64(rnd.Intn(1<<16)) / 4, float64(1 + rnd.Intn(3))}); err != nil {
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
	if _, _, err := runUnshared(s, heat, 0, Opts{NoCache: true}); err != nil {
		t.Fatal(err)
	}
	if st, err := s.CompactOnce(brick.CompactionConfig{EvictBelow: 1}); err != nil || st.Evicted == 0 || st.Evicted == s.BrickCount() {
		t.Fatalf("evicted %d of %d bricks (err %v), want a mix of tiers", st.Evicted, s.BrickCount(), err)
	}
	// A quarter of the fully decoded table: whole-brick entries keep
	// falling out while the sequence revisits them.
	dc := brick.NewDecodedCache(rows * schema.RowBytes() / 4)
	s.SetDecodedCache(dc)
	cached := NewScheduler(s, SchedulerConfig{})

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
		coldP, _, err := runUnshared(s, q, 0, Opts{NoCache: true})
		if err != nil {
			t.Fatalf("query %d cold: %v", i, err)
		}
		p, _, err := cached.Run(context.Background(), q, Opts{Unshared: true})
		if err != nil {
			t.Fatalf("query %d cached: %v", i, err)
		}
		if err := resultsEqual(normalizeDecomp(coldP.Finalize()), normalizeDecomp(p.Finalize())); err != nil {
			t.Fatalf("query %d (%+v) cached vs cold: %v", i, q, err)
		}
	}
	st := dc.Stats()
	if st.Evictions == 0 || st.Hits == 0 || st.Entries > s.BrickCount() {
		t.Fatalf("want evictions and hits over at most %d entries, got %+v", s.BrickCount(), st)
	}
}
