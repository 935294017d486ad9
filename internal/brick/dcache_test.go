package brick

import (
	"reflect"
	"runtime"
	"sync"
	"testing"
	"weak"
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
	if _, err := task.VisitBatch(proj, nil, func(b *Batch) error {
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
		if v := e.b.dec.Load(); v != nil && v.dc == dc && v.epoch == e.b.Epoch() {
			sum += batchBytes(&v.cols)
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
// an ingest's new-epoch entry replacing the old one, and Import removing
// the replaced bricks' entries.
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
			tasks, _ := s.PlanScan(nil, nil)
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
			// compressed again the old entry is never served, and the new
			// epoch's entry replaces it under the brick's one key.
			hot := tasks[0].brick
			row := make([]uint32, nd)
			for d := range row {
				row[d] = tasks[0].Bounds[d][0]
			}
			if err := s.Insert(row, make([]float64, nm)); err != nil {
				t.Fatal(err)
			}
			var err error
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
			if st := dc.Stats(); st.Entries != bricks {
				t.Fatalf("entries = %d after ingest into one brick, want %d (the old epoch's entry replaced)", st.Entries, bricks)
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
			tasks, _ = s.PlanScan(tasks[:0], nil)
			for ti := range tasks {
				got := visitCopy(t, &tasks[ti], shapes[0])
				if ref := visitCopy(t, &tasks[ti], uncached(shapes[0])); !reflect.DeepEqual(got, ref) {
					t.Fatalf("after Import brick %d: cached batch differs from NoCache decode", ti)
				}
			}
			if st := dc.Stats(); st.Entries != bricks {
				t.Fatalf("entries = %d after Import, want %d (the replaced bricks' entries removed)", st.Entries, bricks)
			}
			if sum, n := entryBytes(dc, s); n != bricks || sum != dc.Stats().Bytes {
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
	tasks, _ := s.PlanScan(nil, nil)
	tasks = tasks[:6]
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
				if _, err := tasks[ti].VisitBatch(shapes[si], nil, func(b *Batch) error {
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

// TestDecodedHitAllocs is the allocation ceiling check.sh enforces on the
// decoded cache's hit path: a visit its brick's entry serves whole builds
// no key and allocates nothing, on either compressed tier, with or without
// a prune filter that keeps the brick.
func TestDecodedHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled items at random, so allocations are not meaningful under -race")
	}
	keep := &Filter{Ranges: map[int][2]uint32{1: {0, 15}}} // every region: prunes nothing
	for _, tier := range []string{"encoded", "evicted"} {
		t.Run(tier, func(t *testing.T) {
			s := mixedStore(t, 60, tier)
			dc := NewDecodedCache(8 << 20)
			s.SetDecodedCache(dc)
			tasks, _ := s.PlanScan(nil, nil)
			shapes := mixedShapes()
			rows := 0
			visitAll := func() {
				for _, proj := range shapes {
					for i := range tasks {
						v, err := tasks[i].VisitBatch(proj, keep, func(b *Batch) error {
							rows += b.Rows
							return nil
						})
						if err != nil || v.Pruned || !v.Compressed {
							t.Fatalf("visit: %+v, %v", v, err)
						}
					}
				}
			}
			visitAll() // fill every brick's entry with every shape's columns
			visitAll()
			before := dc.Stats()
			allocs := testing.AllocsPerRun(10, visitAll)
			after := dc.Stats()
			if visits := int64(11 * len(shapes) * len(tasks)); after.Hits-before.Hits != visits || after.Misses != before.Misses {
				t.Fatalf("warm visits: %d hits, %d misses over %d visits", after.Hits-before.Hits, after.Misses-before.Misses, visits)
			}
			if allocs != 0 {
				t.Fatalf("%d warm visits allocate %.0f objects, ceiling is 0", len(shapes)*len(tasks), allocs)
			}
		})
	}
}

// TestDecodedCacheOneEntryAfterIngests: a brick has one decoded entry
// whatever its ingest history. Each ingest moves the brick to a new epoch;
// once it is compressed and visited again, the new epoch's entry replaces
// the old one under the brick's key instead of stranding it beside it.
func TestDecodedCacheOneEntryAfterIngests(t *testing.T) {
	s, err := NewStore(testSchema())
	if err != nil {
		t.Fatal(err)
	}
	dc := NewDecodedCache(8 << 20)
	s.SetDecodedCache(dc)
	row := []uint32{1, 2, 3}
	for n := 1; n <= 20; n++ {
		if err := s.Insert(row, []float64{float64(n), 1}); err != nil {
			t.Fatal(err)
		}
		tasks, _ := s.PlanScan(nil, nil)
		b := tasks[0].brick
		if err := b.Compress(); err != nil {
			t.Fatal(err)
		}
		got := visitCopy(t, &tasks[0], nil)
		if got.Rows != n || got.Metrics[0][n-1] != float64(n) {
			t.Fatalf("ingest %d: visit saw %d rows, last value %v", n, got.Rows, got.Metrics[0][got.Rows-1])
		}
		st := dc.Stats()
		if ent := b.dec.Load(); len(tasks) != 1 || st.Entries != 1 || ent == nil || ent.epoch != b.Epoch() ||
			st.Bytes != batchBytes(&ent.cols) || st.Evictions != 0 {
			t.Fatalf("after %d ingests into one brick: %d bricks, cache %+v, want exactly one entry at the brick's epoch", n, len(tasks), st)
		}
	}
}

// TestDecodedEvictionClearsBrick: the entries bricks hold are exactly the
// entries the cache holds. Under a budget of about a third of the bricks,
// every eviction clears its brick's pointer, so no brick keeps decoded
// columns the budget no longer counts.
func TestDecodedEvictionClearsBrick(t *testing.T) {
	s := mixedStore(t, 60, "evicted")
	tasks, _ := s.PlanScan(nil, nil)
	dc := NewDecodedCache(int64(len(tasks)) / 3 * 60 * (s.schema.RowBytes() + 8))
	s.SetDecodedCache(dc)
	for round := 0; round < 3; round++ {
		for i := range tasks {
			visitCopy(t, &tasks[i], nil)
		}
	}
	sum, n := entryBytes(dc, s)
	st := dc.Stats()
	if st.Evictions == 0 || n != st.Entries || sum != st.Bytes {
		t.Fatalf("bricks hold %d entries (%d bytes), cache holds %+v", n, sum, st)
	}
}

// TestRetiredBricksLeaveDecodedCache: a brick that leaves its store —
// replaced by Import or ImportBricks, or retired with its whole store when
// its partition is dropped — takes its decoded entry out of the cache, so
// the budget stops counting it and nothing the cache holds keeps the brick
// (and its blob) alive; a visit still planned on it decodes uncached.
func TestRetiredBricksLeaveDecodedCache(t *testing.T) {
	s := mixedStore(t, 60, "evicted")
	dc := NewDecodedCache(64 << 20)
	s.SetDecodedCache(dc)
	// warm visits every brick once, so each holds an entry, and returns
	// weak pointers to the bricks.
	warm := func() []weak.Pointer[Brick] {
		tasks, _ := s.PlanScan(nil, nil)
		var bricks []weak.Pointer[Brick]
		for i := range tasks {
			visitCopy(t, &tasks[i], nil)
			bricks = append(bricks, weak.Make(tasks[i].brick))
		}
		if st := dc.Stats(); st.Entries != len(tasks) {
			t.Fatalf("warm: %d entries for %d bricks", st.Entries, len(tasks))
		}
		return bricks
	}
	collected := func(step string, bricks []weak.Pointer[Brick]) {
		t.Helper()
		if st := dc.Stats(); st.Entries != 0 || st.Bytes != 0 {
			t.Fatalf("%s: the cache still holds %+v", step, st)
		}
		runtime.GC()
		runtime.GC()
		for i, w := range bricks {
			if w.Value() != nil {
				t.Fatalf("%s: replaced brick %d is still reachable", step, i)
			}
		}
	}
	blob, err := s.Export()
	if err != nil {
		t.Fatal(err)
	}
	compress := func() {
		for _, e := range s.snapshotBricks() {
			if err := e.b.Compress(); err != nil {
				t.Fatal(err)
			}
		}
	}

	old := warm()
	if err := s.Import(blob); err != nil {
		t.Fatal(err)
	}
	collected("Import", old)

	compress()
	old = warm()
	if _, err := s.ImportBricks(blob); err != nil {
		t.Fatal(err)
	}
	collected("ImportBricks", old)

	compress()
	warm()
	tasks, _ := s.PlanScan(nil, nil)
	s.Retire()
	if st := dc.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("Retire: the cache still holds %+v", st)
	}
	for i := range tasks {
		got := visitCopy(t, &tasks[i], nil)
		if ref := visitCopy(t, &tasks[i], uncached(nil)); !reflect.DeepEqual(got, ref) {
			t.Fatalf("retired brick %d: visit differs from the uncached decode", i)
		}
	}
	if st := dc.Stats(); st.Entries != 0 {
		t.Fatalf("visits of a retired store filled the cache: %+v", st)
	}
}
