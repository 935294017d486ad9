package brick

import (
	"reflect"
	"sort"
	"sync"
	"testing"

	"cubrick/internal/randutil"
)

// planScanReference is PlanScan as it was before the sorted snapshot: copy
// the brick map, sort the ids, compute bounds per brick, then prune. The
// snapshot must be indistinguishable from it.
func planScanReference(t *testing.T, s *Store, f *Filter) (tasks []ScanTask, pruned int) {
	t.Helper()
	s.mu.Lock()
	ids := make([]uint64, 0, len(s.bricks))
	for id := range s.bricks {
		ids = append(ids, id)
	}
	bricks := make(map[uint64]*Brick, len(s.bricks))
	for id, b := range s.bricks {
		bricks[id] = b
	}
	s.mu.Unlock()
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	tasks = []ScanTask{}
	for _, id := range ids {
		bounds, err := s.schema.BrickBounds(id)
		if err != nil {
			t.Fatal(err)
		}
		overlaps, covers := true, true
		if f != nil {
			for d, r := range f.Ranges {
				overlaps = overlaps && r[1] >= bounds[d][0] && r[0] <= bounds[d][1]
				covers = covers && r[0] <= bounds[d][0] && r[1] >= bounds[d][1]
			}
		}
		if !overlaps {
			pruned++
			continue
		}
		tasks = append(tasks, ScanTask{store: s, brick: bricks[id], BrickID: id, Bounds: bounds, Full: covers})
	}
	return tasks, pruned
}

func checkPlanScan(t *testing.T, stage string, s *Store) {
	t.Helper()
	filters := []*Filter{
		nil,
		{Ranges: map[int][2]uint32{0: {4, 7}}},
		{Ranges: map[int][2]uint32{0: {3, 9}, 2: {10, 200}}},
		{Ranges: map[int][2]uint32{1: {95, 99}, 2: {364, 364}}},
		{Ranges: map[int][2]uint32{1: {50, 40}}}, // empty range: prunes everything
	}
	// A reused dst holding another plan's tasks: PlanScan appends after them.
	dst := []ScanTask{{BrickID: 1 << 60}}
	for i, f := range filters {
		got, pruned := s.PlanScan(dst[:1], f)
		want, wantPruned := planScanReference(t, s, f)
		if pruned != wantPruned || got[0].BrickID != 1<<60 || !reflect.DeepEqual(got[1:], want) {
			t.Fatalf("%s filter %d: PlanScan differs from sort-per-call reference: %d tasks/%d pruned, want %d/%d",
				stage, i, len(got)-1, pruned, len(want), wantPruned)
		}
		dst = got
	}
	if all, _ := planScanReference(t, s, nil); s.BrickCount() != len(all) {
		t.Fatalf("%s: BrickCount %d disagrees with the brick map", stage, s.BrickCount())
	}
}

// TestPlanScanMatchesSortPerCall pins the copy-on-write snapshot to the old
// per-call result — same order, bounds, pruning and brick pointers — after
// every operation that changes the brick set.
func TestPlanScanMatchesSortPerCall(t *testing.T) {
	s, err := NewStore(testSchema())
	if err != nil {
		t.Fatal(err)
	}
	checkPlanScan(t, "empty", s)

	rnd := randutil.New(3)
	row := func() ([]uint32, []float64) {
		return []uint32{uint32(rnd.Intn(16)), uint32(rnd.Intn(100)), uint32(rnd.Intn(365))}, []float64{1, 2}
	}
	for i := 0; i < 300; i++ { // bricks created one at a time, in random id order
		d, m := row()
		if err := s.Insert(d, m); err != nil {
			t.Fatal(err)
		}
	}
	checkPlanScan(t, "insert", s)

	dims, mets := make([][]uint32, 500), make([][]float64, 500)
	for i := range dims {
		dims[i], mets[i] = row()
	}
	if err := insertRows(s, dims, mets); err != nil { // many bricks created at once
		t.Fatal(err)
	}
	checkPlanScan(t, "insert batch", s)

	// ImportBricks: some ids replace resident bricks, some are new.
	src, _ := NewStore(testSchema())
	for i := 0; i < 400; i++ {
		d, m := row()
		src.Insert(d, m)
	}
	blob, err := src.Export()
	if err != nil {
		t.Fatal(err)
	}
	before := s.snapshotBricks()
	if _, err := s.ImportBricks(blob); err != nil {
		t.Fatal(err)
	}
	checkPlanScan(t, "import bricks", s)
	if len(before) > 0 && &before[0] == &s.snapshotBricks()[0] {
		t.Fatal("ImportBricks modified the published snapshot in place")
	}

	// Import replaces the brick set wholesale: resident ids absent from the
	// blob are dropped.
	small, _ := NewStore(testSchema())
	for i := 0; i < 20; i++ {
		d, m := row()
		small.Insert(d, m)
	}
	blob, err = small.Export()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Import(blob); err != nil {
		t.Fatal(err)
	}
	checkPlanScan(t, "import", s)
	if s.BrickCount() != small.BrickCount() {
		t.Fatalf("Import kept %d bricks, blob had %d", s.BrickCount(), small.BrickCount())
	}
}

// store256 fills every brick of a 16×4×4 space, the benchmark's partition
// shape: 256 bricks.
func store256(tb testing.TB) *Store {
	tb.Helper()
	s, err := NewStore(Schema{
		Dimensions: []Dimension{
			{Name: "ds", Max: 128, Buckets: 16},
			{Name: "region", Max: 16, Buckets: 4},
			{Name: "app", Max: 1024, Buckets: 4},
			{Name: "kind", Max: 64, Buckets: 1},
		},
		Metrics: []Metric{{Name: "value"}},
	})
	if err != nil {
		tb.Fatal(err)
	}
	for ds := uint32(0); ds < 128; ds += 8 {
		for region := uint32(0); region < 16; region += 4 {
			for app := uint32(0); app < 1024; app += 256 {
				if err := s.Insert([]uint32{ds, region, app, 1}, []float64{1}); err != nil {
					tb.Fatal(err)
				}
			}
		}
	}
	if s.BrickCount() != 256 {
		tb.Fatalf("store256 has %d bricks", s.BrickCount())
	}
	return s
}

// TestPlanScanAllocs is the allocation ceiling check.sh enforces: a plan
// appended into a task slice with room allocates nothing, whatever the
// brick count — no map copy, no sort, no per-brick bounds.
func TestPlanScanAllocs(t *testing.T) {
	s := store256(t)
	f := &Filter{Ranges: map[int][2]uint32{0: {40, 90}, 2: {100, 300}}}
	tasks, _ := s.PlanScan(nil, f)
	allocs := testing.AllocsPerRun(100, func() {
		tasks, _ = s.PlanScan(tasks[:0], f)
	})
	if allocs > 0 {
		t.Fatalf("PlanScan over 256 bricks into a slice with room allocates %.0f objects per call, ceiling is 0", allocs)
	}
}

var planSink []ScanTask

// BenchmarkPlanScan256 is the per-call planning cost of one /partial over
// a 256-brick partition under a pruning filter (ROADMAP aim 1c: the
// microbenchmark behind the budget's plan line).
func BenchmarkPlanScan256(b *testing.B) {
	s := store256(b)
	f := &Filter{Ranges: map[int][2]uint32{0: {40, 90}, 2: {100, 300}}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		planSink, _ = s.PlanScan(planSink[:0], f)
	}
}

// TestIngestIntoColdBricksUnderCompaction interleaves batch ingest into
// bricks the compactor keeps cooling (run with -race). A brick compressed
// between InsertBatch's decompress and its append used to keep the old blob
// beside raw-only rows ("blob has N rows, brick has M"); every row must stay
// visible and every scan must succeed.
func TestIngestIntoColdBricksUnderCompaction(t *testing.T) {
	s, err := NewStore(testSchema())
	if err != nil {
		t.Fatal(err)
	}
	cfg := CompactionConfig{EncodeBelow: 1e18} // every raw brick is always cold enough to encode
	const batches, batchRows = 500, 16
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < 3; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := s.CompactOnce(cfg); err != nil {
					t.Errorf("compact: %v", err)
					return
				}
			}
		}()
	}
	rnd := randutil.New(11)
	for b := 0; b < batches; b++ {
		dims, mets := make([][]uint32, batchRows), make([][]float64, batchRows)
		for r := range dims {
			// Few bricks, so each is hit by many batches while compressed.
			dims[r] = []uint32{uint32(rnd.Intn(16)), uint32(rnd.Intn(40)), 0}
			mets[r] = []float64{1, float64(b)}
		}
		if err := insertRows(s, dims, mets); err != nil {
			t.Fatalf("batch %d: %v", b, err)
		}
		if b%2 == 0 { // the row-at-a-time path shares the fix
			if err := s.Insert([]uint32{uint32(rnd.Intn(8)), uint32(rnd.Intn(20)), 0}, []float64{1, float64(b)}); err != nil {
				t.Fatalf("insert %d: %v", b, err)
			}
		}
	}
	close(stop)
	wg.Wait()
	var seen int64
	if err := s.Scan(nil, func([]uint32, []float64) error { seen++; return nil }); err != nil {
		t.Fatalf("scan after interleaved ingest and compaction: %v", err)
	}
	if want := int64(batches*batchRows + batches/2); seen != want || s.Rows() != want {
		t.Fatalf("scan saw %d rows, store counts %d, ingested %d", seen, s.Rows(), want)
	}
}
