package brick

import (
	"reflect"
	"sync"
	"testing"
)

// cloneBatch deep-copies a visit's batch, keeping nil-ness, so it can be
// compared after the visit returned its scratch.
func cloneBatch(b *Batch) *Batch {
	out := &Batch{Rows: b.Rows}
	for _, c := range b.Dims {
		out.Dims = append(out.Dims, append([]uint32(nil), c...))
	}
	for _, c := range b.Metrics {
		out.Metrics = append(out.Metrics, append([]float64(nil), c...))
	}
	for _, c := range b.DimRuns {
		out.DimRuns = append(out.DimRuns, append([]Run(nil), c...))
	}
	for _, c := range b.DimCodes {
		out.DimCodes = append(out.DimCodes, append([]uint32(nil), c...))
	}
	for _, c := range b.DimDict {
		out.DimDict = append(out.DimDict, append([]uint32(nil), c...))
	}
	return out
}

// visitCopy visits one task under proj and returns a copy of what fn saw.
func visitCopy(t testing.TB, task *ScanTask, proj *Projection) *Batch {
	t.Helper()
	var got *Batch
	if err := task.VisitBatch(proj, func(b *Batch) error {
		got = cloneBatch(b)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return got
}

// uncached is proj with the decoded cache bypassed: the reference decode.
func uncached(proj *Projection) *Projection {
	if proj == nil {
		return &Projection{NoCache: true}
	}
	p := *proj
	p.NoCache = true
	return &p
}

// wants is the set of columns a projection references, as a bitmask over
// dims then metrics — the model of which slots a visit may have to decode.
func wants(proj *Projection, nDims, nMetrics int) (mask uint) {
	for i := 0; i < nDims; i++ {
		if proj.dim(i) != ColSkip {
			mask |= 1 << i
		}
	}
	for i := 0; i < nMetrics; i++ {
		if proj.metric(i) {
			mask |= 1 << (nDims + i)
		}
	}
	return mask
}

// entryBytes sums the priced slots of every live entry of the store's
// bricks, straight off the entries.
func entryBytes(dc *DecodedCache, s *Store) (sum int64, entries int) {
	for _, e := range s.snapshotBricks() {
		if v, ok := dc.c.Peek(dcacheKey(e.b.uid, e.b.Epoch()), 0); ok {
			sum += batchBytes(&v.(*decodedBrick).cols)
			entries++
		}
	}
	return sum, entries
}

// TestDecodedCacheOneEntryPerBrick pins the decoded-column cache's shape:
// one entry per (brick generation, epoch) whatever projections visit it,
// every visit's batch identical to the uncached decode of its projection,
// the blob walked (and an evicted blob inflated) only by visits that need a
// column no earlier visit decoded, entries priced at the sum of their slots,
// and ingest / Import stranding the old entry instead of serving it.
func TestDecodedCacheOneEntryPerBrick(t *testing.T) {
	// First a projection of no column at all (COUNT(*) over a covered
	// brick) so it meets a brand-new entry; last nil, which materializes
	// everything.
	shapes := append([]*Projection{{Dims: make([]ColRequest, 4), Metrics: make([]bool, 2)}}, mixedShapes()...)
	shapes = append(shapes, nil)
	for _, tier := range []string{"encoded", "evicted"} {
		t.Run(tier, func(t *testing.T) {
			s := mixedStore(t, 60, tier)
			nd, nm := len(s.schema.Dimensions), len(s.schema.Metrics)
			if st := s.EncodingStats(); tier == "encoded" && (st.Dims["rle"]+st.Dims["for0"] == 0 || st.Dims["dict"] == 0) {
				t.Fatalf("fixture has no run or no dictionary columns: %+v", st)
			}
			const budget = 8 << 20
			dc := NewDecodedCache(budget)
			s.SetDecodedCache(dc)
			plan, err := s.PlanScan(nil)
			if err != nil {
				t.Fatal(err)
			}
			tasks := plan.Tasks
			bricks := len(tasks)

			// The reference decodes bypass the cache and pay a walk each;
			// take them first so the counters below see cached visits only.
			want := make([][]*Batch, len(shapes))
			for si, proj := range shapes {
				for ti := range tasks {
					want[si] = append(want[si], visitCopy(t, &tasks[ti], uncached(proj)))
				}
			}
			if st := dc.Stats(); st.Entries != 0 || st.Hits+st.Misses != 0 {
				t.Fatalf("NoCache visits touched the cache: %+v", st)
			}

			walks0, reads0 := s.Decompressions(), s.SSDReads()
			seen := make([]uint, bricks) // columns decoded so far, per brick
			var wantWalks, visits int64
			runViews, codeViews := 0, 0
			for round := 0; round < 2; round++ {
				for si, proj := range shapes {
					for ti := range tasks {
						got := visitCopy(t, &tasks[ti], proj)
						if !reflect.DeepEqual(got, want[si][ti]) {
							t.Fatalf("round %d shape %d brick %d: cached batch differs from NoCache decode\n got %+v\nwant %+v", round, si, ti, got, want[si][ti])
						}
						for d := 0; d < nd; d++ {
							if got.Runs(d) != nil {
								runViews++
							}
							if codes, _ := got.Codes(d); codes != nil {
								codeViews++
							}
						}
						if need := wants(proj, nd, nm); need&^seen[ti] != 0 {
							wantWalks++
							seen[ti] |= need
						}
						visits++
					}
				}
			}
			if runViews == 0 || codeViews == 0 {
				t.Fatalf("shapes delivered %d run views, %d code views: both must be exercised", runViews, codeViews)
			}
			if got := s.Decompressions() - walks0; got != wantWalks {
				t.Fatalf("blob walks = %d, want %d (one per visit needing a not yet decoded column)", got, wantWalks)
			}
			wantReads := int64(0)
			if tier == "evicted" {
				wantReads = wantWalks
			}
			if got := s.SSDReads() - reads0; got != wantReads {
				t.Fatalf("inflations = %d, want %d", got, wantReads)
			}
			st := dc.Stats()
			if st.Entries != bricks || st.Evictions != 0 {
				t.Fatalf("entries = %d evictions = %d over %d bricks, want one entry per brick", st.Entries, st.Evictions, bricks)
			}
			// A visit that only expands values from a resident run or code
			// view walks nothing but still grows the entry: it is a miss.
			if st.Hits+st.Misses != visits || st.Misses < wantWalks || st.Hits < visits/2 {
				t.Fatalf("hits %d + misses %d over %d visits, %d walks", st.Hits, st.Misses, visits, wantWalks)
			}
			if sum, n := entryBytes(dc, s); n != bricks || sum != st.Bytes || sum > budget {
				t.Fatalf("cache bytes %d, Σ slot bytes %d over %d entries, budget %d", st.Bytes, sum, n, budget)
			}
			t.Logf("%d visits of %d bricks: %d walks, %d hits, %d misses, %d run views, %d code views, %d bytes",
				visits, bricks, wantWalks, st.Hits, st.Misses, runViews, codeViews, st.Bytes)

			// Ingest into one brick: it goes raw under a new epoch; once it is
			// compressed again the old entry is stranded, never served.
			hot := tasks[0].brick
			row := make([]uint32, nd)
			for d := range row {
				row[d] = tasks[0].Bounds[d][0]
			}
			if err := s.Insert(row, make([]float64, nm)); err != nil {
				t.Fatal(err)
			}
			if tier == "evicted" {
				err = hot.Evict()
			} else {
				err = hot.Compress()
			}
			if err != nil {
				t.Fatal(err)
			}
			for _, proj := range shapes {
				got := visitCopy(t, &tasks[0], proj)
				if ref := visitCopy(t, &tasks[0], uncached(proj)); !reflect.DeepEqual(got, ref) || got.Rows != want[1][0].Rows+1 {
					t.Fatalf("after ingest: cached batch (%d rows) differs from NoCache decode (%d rows), was %d", got.Rows, ref.Rows, want[1][0].Rows)
				}
			}
			if st := dc.Stats(); st.Entries != bricks+1 {
				t.Fatalf("entries = %d after ingest into one brick, want %d (the old epoch's entry stranded)", st.Entries, bricks+1)
			}

			// Import replaces every brick with a new generation (fresh uids).
			blob, err := s.Export()
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Import(blob); err != nil {
				t.Fatal(err)
			}
			for _, e := range s.snapshotBricks() {
				if err := e.b.Compress(); err != nil {
					t.Fatal(err)
				}
			}
			plan, err = s.PlanScan(nil)
			if err != nil {
				t.Fatal(err)
			}
			for ti := range plan.Tasks {
				got := visitCopy(t, &plan.Tasks[ti], shapes[0])
				if ref := visitCopy(t, &plan.Tasks[ti], uncached(shapes[0])); !reflect.DeepEqual(got, ref) {
					t.Fatalf("after Import brick %d: cached batch differs from NoCache decode", ti)
				}
			}
			if st := dc.Stats(); st.Entries != 2*bricks+1 {
				t.Fatalf("entries = %d after Import, want %d (every old generation stranded)", st.Entries, 2*bricks+1)
			}
			if sum, n := entryBytes(dc, s); n != bricks || sum >= dc.Stats().Bytes {
				t.Fatalf("live entries %d (%d bytes) of %d cached bytes", n, sum, dc.Stats().Bytes)
			}
		})
	}
}

// TestDecodedCacheConcurrentVisitors visits the same few bricks from many
// goroutines, every goroutine starting at a different projection, under a
// budget that keeps evicting entries (run with -race): entries grow in
// place, so two visitors of one brick must never see each other's work in
// progress.
func TestDecodedCacheConcurrentVisitors(t *testing.T) {
	s := mixedStore(t, 60, "evicted")
	shapes := append(mixedShapes(), nil)
	plan, err := s.PlanScan(nil)
	if err != nil {
		t.Fatal(err)
	}
	tasks := plan.Tasks[:6]
	want := make([][]*Batch, len(shapes))
	for si, proj := range shapes {
		for ti := range tasks {
			want[si] = append(want[si], visitCopy(t, &tasks[ti], uncached(proj)))
		}
	}
	// Room for about four fully decoded bricks of the six.
	dc := NewDecodedCache(4 * 60 * (s.schema.RowBytes() + 8))
	s.SetDecodedCache(dc)

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40*len(shapes); i++ {
				si, ti := (g+i)%len(shapes), (g*5+i)%len(tasks)
				var got *Batch
				if err := tasks[ti].VisitBatch(shapes[si], func(b *Batch) error {
					got = cloneBatch(b)
					return nil
				}); err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(got, want[si][ti]) {
					t.Errorf("goroutine %d: shape %d brick %d differs from NoCache decode", g, si, ti)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	st := dc.Stats()
	if st.Evictions == 0 || st.Hits == 0 || st.Entries > len(tasks) {
		t.Fatalf("want evictions and hits over at most %d entries, got %+v", len(tasks), st)
	}
}
