package brick

import (
	"math"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"weak"

	"cubrick/internal/metrics"
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

			// Import replaces every brick with a new one.
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

// pricedEntry returns the entry of a fresh store-less brick at heat,
// published on the brick as a visit would, with one metric slot sized so
// the entry prices at price bytes.
func pricedEntry(t *testing.T, dc *DecodedCache, heat float64, price int64) *decodedBrick {
	t.Helper()
	b := newBrick(0, 1)
	b.hotness.Store(math.Float64bits(heat))
	e := newDecodedBrick(b, dc, 0, 1)
	e.resize(t, price)
	b.dec.Store(e)
	return e
}

// resize grows or shrinks e's one metric slot so e prices at price bytes.
func (e *decodedBrick) resize(t *testing.T, price int64) {
	t.Helper()
	e.cols.Metrics[0] = nil
	base := batchBytes(&e.cols)
	if (price-base)%8 != 0 || price < base {
		t.Fatalf("no slot size prices an entry at %d bytes (empty entry: %d)", price, base)
	}
	e.cols.Metrics[0] = make([]float64, (price-base)/8)
}

// cached reports whether the cache holds e, and whether e's brick still
// points at it: the two must agree.
func cached(t *testing.T, e *decodedBrick) bool {
	t.Helper()
	in, onBrick := e.el != nil, e.b.dec.Load() == e
	if in != onBrick {
		t.Fatalf("entry in cache %v, on its brick %v", in, onBrick)
	}
	return in
}

// An entry that grows in place is re-priced by putting it again: the
// cache makes room for its new price, and an entry that outgrows the whole
// budget leaves the cache and its brick instead of staying at its old
// price. Every put counts a miss and a hit counts without the lock.
func TestDecodedCacheRepricesGrownEntry(t *testing.T) {
	dc := NewDecodedCache(1200)
	a, b := pricedEntry(t, dc, 0, 400), pricedEntry(t, dc, 0, 400)
	dc.put(a)
	dc.put(b)
	dc.hit()
	a.resize(t, 1104) // grew: b has to go
	dc.put(a)
	if st := dc.Stats(); st.Bytes != 1104 || st.Entries != 1 || st.Evictions != 1 || st.Hits != 1 || st.Misses != 3 {
		t.Fatalf("after regrow: %+v", st)
	}
	if !cached(t, a) || cached(t, b) {
		t.Fatal("regrow evicted the grown entry instead of the other one")
	}
	a.resize(t, 1208) // outgrew the budget
	dc.put(a)
	if st := dc.Stats(); st.Bytes != 0 || st.Entries != 0 || st.Evictions != 2 || st.Misses != 4 || cached(t, a) {
		t.Fatalf("after outgrowing: %+v", st)
	}
}

// A nil cache is caching off: a non-positive budget returns it, it reports
// zeros and takes metrics without effect, and a store that has it decodes
// every visit afresh, leaving no entry on any brick.
func TestNilDecodedCacheIsOff(t *testing.T) {
	if NewDecodedCache(0) != nil || NewDecodedCache(-1) != nil {
		t.Fatal("a non-positive budget must return the nil cache")
	}
	var off *DecodedCache
	reg := metrics.NewRegistry()
	off.SetMetrics(reg)
	if off.Stats() != (DecodedStats{}) || len(reg.CounterValues()) != 0 {
		t.Fatalf("the nil cache reports %+v and registered %v", off.Stats(), reg.CounterValues())
	}
	s := mixedStore(t, 60, "encoded")
	s.SetDecodedCache(off)
	tasks, _ := s.PlanScan(nil, nil)
	walks0 := s.Decompressions()
	for round := 0; round < 2; round++ {
		for i := range tasks {
			got := visitCopy(t, &tasks[i], nil)
			if ref := visitCopy(t, &tasks[i], uncached(nil)); !reflect.DeepEqual(got, ref) {
				t.Fatalf("round %d brick %d: visit differs from the uncached decode", round, i)
			}
			if tasks[i].brick.dec.Load() != nil {
				t.Fatalf("round %d brick %d: a visit left a decoded entry on its brick", round, i)
			}
		}
	}
	if walks, want := s.Decompressions()-walks0, int64(4*len(tasks)); walks != want {
		t.Fatalf("%d blob walks for %d visits: a visit was served from somewhere", walks, want)
	}
}

// The cache.decoded.* metrics follow the counters and the size: a put
// counts a miss, a hit counts without the lock, an eviction counts once,
// and a removal moves the gauges without counting an eviction.
func TestDecodedCacheMetrics(t *testing.T) {
	reg := metrics.NewRegistry()
	dc := NewDecodedCache(600)
	dc.SetMetrics(reg)
	a, b := pricedEntry(t, dc, 0, 400), pricedEntry(t, dc, 0, 400)
	dc.put(a)
	dc.hit()
	dc.put(b) // evicts a
	vals := reg.CounterValues()
	if vals["cache.decoded.hit"] != 1 || vals["cache.decoded.miss"] != 2 || vals["cache.decoded.evict"] != 1 {
		t.Fatalf("counters: %v", vals)
	}
	gauges := func() (float64, float64) {
		return reg.Gauge("cache.decoded.bytes").Value(), reg.Gauge("cache.decoded.entries").Value()
	}
	if gb, ge := gauges(); gb != 400 || ge != 1 {
		t.Fatalf("gauges bytes=%v entries=%v, want 400 and 1", gb, ge)
	}
	dc.remove(b)
	if gb, ge := gauges(); gb != 0 || ge != 0 || reg.CounterValues()["cache.decoded.evict"] != 1 {
		t.Fatalf("after remove: gauges bytes=%v entries=%v, counters %v", gb, ge, reg.CounterValues())
	}
	if st := dc.Stats(); st.Hits != 1 || st.Misses != 2 || st.Evictions != 1 || st.Bytes != 0 || st.Entries != 0 {
		t.Fatalf("stats disagree with the metrics: %+v", st)
	}
}

// Every way an entry leaves the cache — evicted, outgrowing the budget,
// rejected on arrival, removed — lets go of it on its brick, and only of
// it: a brick that has moved on to a newer entry keeps that one.
func TestDecodedCacheDropsLetGoOfBrick(t *testing.T) {
	dc := NewDecodedCache(1200)
	let := func(what string, e *decodedBrick) {
		t.Helper()
		if cached(t, e) || e.b.dec.Load() != nil {
			t.Fatalf("%s: the entry stayed in the cache or on its brick", what)
		}
	}
	evicted, outgrown, removed := pricedEntry(t, dc, 0, 400), pricedEntry(t, dc, 50, 400), pricedEntry(t, dc, 50, 400)
	dc.put(evicted)
	dc.put(outgrown)
	dc.put(removed)
	dc.put(pricedEntry(t, dc, 50, 400))
	let("evicted", evicted)
	outgrown.resize(t, 1208)
	dc.put(outgrown)
	let("outgrown", outgrown)
	rejected := pricedEntry(t, dc, 0, 1208)
	dc.put(rejected)
	let("rejected", rejected)
	dc.remove(removed)
	let("removed", removed)

	// The brick moved on to a new epoch's entry before its old one left.
	for _, evict := range []bool{false, true} {
		stale := pricedEntry(t, dc, 0, 400)
		dc.put(stale)
		fresh := newDecodedBrick(stale.b, dc, 0, 1)
		stale.b.dec.Store(fresh)
		if evict {
			for stale.el != nil {
				dc.put(pricedEntry(t, dc, 50, 400))
			}
		} else {
			dc.remove(stale)
		}
		if stale.el != nil || stale.b.dec.Load() != fresh {
			t.Fatalf("evict %v: dropping the stale entry cleared the brick's newer one", evict)
		}
	}
	if st := dc.Stats(); st.Bytes != int64(st.Entries)*400 {
		t.Fatalf("budget out of step with its entries: %+v", st)
	}
}

// An entry larger than the whole budget is never admitted: the cache
// keeps what it holds, and the entry's brick lets go of it, so the next
// visit decodes again rather than serving columns no budget counts.
func TestDecodedCacheRejectsOversizedEntry(t *testing.T) {
	dc := NewDecodedCache(1200)
	small, huge := pricedEntry(t, dc, 0, 400), pricedEntry(t, dc, 0, 1208)
	dc.put(small)
	dc.put(huge)
	if cached(t, huge) || !cached(t, small) {
		t.Fatal("an oversized entry was admitted or wiped the cache")
	}
	if st := dc.Stats(); st.Bytes != 400 || st.Entries != 1 || st.Evictions != 0 {
		t.Fatalf("after an oversized put: %+v", st)
	}
}

// Eviction ranks the least recently used entries by their brick's live
// heat, not the heat at fill time: within the window the coldest brick's
// entry goes, even when a hotter one is older.
func TestDecodedCacheEvictsColdestByLiveHeat(t *testing.T) {
	dc := NewDecodedCache(1200)
	hot, cold := pricedEntry(t, dc, 0, 400), pricedEntry(t, dc, 100, 400)
	dc.put(hot) // the least recently used
	dc.put(cold)
	dc.put(pricedEntry(t, dc, 50, 400))
	// Heat moves after the puts.
	hot.b.hotness.Store(math.Float64bits(100))
	cold.b.hotness.Store(math.Float64bits(0))
	dc.put(pricedEntry(t, dc, 50, 400))
	if !cached(t, hot) || cached(t, cold) {
		t.Fatal("eviction did not pick the entry whose brick is coldest now")
	}
	if st := dc.Stats(); st.Evictions != 1 || st.Entries != 3 {
		t.Fatalf("stats: %+v", st)
	}
}

// Hits never reach the cache, so the used mark is what keeps an entry
// recent: at eviction a marked entry moves to the front, unmarked, and the
// oldest unmarked entry goes in its stead. With equal heats that is LRU
// order: the entry hit since its put outlives the ones put after it.
func TestDecodedCacheUsedIsRecent(t *testing.T) {
	dc := NewDecodedCache(1200)
	var ents []*decodedBrick
	for range 3 {
		e := pricedEntry(t, dc, 0, 400)
		dc.put(e)
		ents = append(ents, e)
	}
	ents[0].markUsed() // a hit on the oldest entry
	dc.put(pricedEntry(t, dc, 0, 400))
	if !cached(t, ents[0]) || cached(t, ents[1]) || ents[0].used.Load() {
		t.Fatalf("used oldest cached %v (mark %v), next oldest cached %v", ents[0].el != nil, ents[0].used.Load(), ents[1].el != nil)
	}
	dc.put(pricedEntry(t, dc, 0, 400))
	if cached(t, ents[2]) || !cached(t, ents[0]) {
		t.Fatal("second eviction did not take entry 2 ahead of entry 0, moved to the front")
	}
	// Every entry marked: each gets its second chance and the walk, which
	// meets them again unmarked, still evicts exactly one.
	for el := dc.lru.Front(); el != nil; el = el.Next() {
		el.Value.(*decodedBrick).markUsed()
	}
	dc.put(pricedEntry(t, dc, 0, 400))
	if st := dc.Stats(); st.Entries != 3 || st.Evictions != 3 {
		t.Fatalf("all marked: %+v, want 3 entries after 3 evictions", st)
	}
}
