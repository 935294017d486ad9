package brick

import (
	"bytes"
	"compress/flate"
	"io"
	"math"
	"runtime"
	"slices"
	"sync"
	"testing"
)

// loadTiered builds a store with distinct hot/cold brick populations.
func loadTiered(t *testing.T) *Store {
	t.Helper()
	s, err := NewStore(testSchema())
	if err != nil {
		t.Fatal(err)
	}
	for i := uint32(0); i < 1600; i++ {
		s.Insert([]uint32{i % 16, (i / 16) % 100, 0}, []float64{1, 1})
	}
	// Heat region bucket 0 heavily, bucket 1 mildly, leave the rest cold.
	for i := 0; i < 50; i++ {
		s.Scan(&Filter{Ranges: map[int][2]uint32{0: {0, 3}}}, func([]uint32, []float64) error { return nil })
	}
	for i := 0; i < 5; i++ {
		s.Scan(&Filter{Ranges: map[int][2]uint32{0: {4, 7}}}, func([]uint32, []float64) error { return nil })
	}
	return s
}

func TestEvictUnevictLifecycle(t *testing.T) {
	s, _ := NewStore(testSchema())
	s.Insert([]uint32{0, 0, 0}, []float64{1, 2})
	var b *Brick
	for _, e := range s.snapshotBricks() {
		b = e.b
	}
	if err := b.Evict(); err != nil {
		t.Fatal(err)
	}
	if !b.IsEvicted() || !b.IsCompressed() {
		t.Fatal("evicted brick must be compressed and flagged")
	}
	if b.MemoryBytes(s.Schema()) != 0 {
		t.Fatalf("evicted memory = %d, want 0", b.MemoryBytes(s.Schema()))
	}
	if b.SSDBytes() == 0 {
		t.Fatal("evicted brick has no SSD footprint")
	}
	b.Unevict()
	if b.IsEvicted() || b.MemoryBytes(s.Schema()) == 0 {
		t.Fatal("unevict did not restore residency")
	}
	if b.SSDBytes() != 0 {
		t.Fatal("resident brick still has SSD footprint")
	}
}

func TestEvictEmptyBrickNoop(t *testing.T) {
	b := newBrick(1, 1)
	if err := b.Evict(); err != nil {
		t.Fatal(err)
	}
	if b.IsEvicted() {
		t.Fatal("empty brick claims evicted")
	}
}

func TestScanEvictedBrickCountsIOPS(t *testing.T) {
	s, _ := NewStore(testSchema())
	s.Insert([]uint32{0, 0, 0}, []float64{5, 0})
	for _, e := range s.snapshotBricks() {
		e.b.Evict()
	}
	var sum float64
	if err := s.Scan(nil, func(_ []uint32, m []float64) error { sum += m[0]; return nil }); err != nil {
		t.Fatal(err)
	}
	if sum != 5 {
		t.Fatalf("sum over evicted store = %v", sum)
	}
	if s.SSDReads() != 1 {
		t.Fatalf("SSDReads = %d, want 1", s.SSDReads())
	}
	// Reads must not change residency: the brick stays on SSD.
	if s.EvictedBrickCount() != 1 {
		t.Fatal("scan promoted the brick")
	}
}

func TestDecompressClearsEviction(t *testing.T) {
	s, _ := NewStore(testSchema())
	s.Insert([]uint32{0, 0, 0}, []float64{1, 0})
	var b *Brick
	for _, e := range s.snapshotBricks() {
		b = e.b
	}
	b.Evict()
	// Ingest into an evicted brick pulls it back to memory uncompressed.
	if err := s.Insert([]uint32{0, 0, 0}, []float64{2, 0}); err != nil {
		t.Fatal(err)
	}
	if b.IsEvicted() || b.IsCompressed() {
		t.Fatal("insert did not promote evicted brick")
	}
	var sum float64
	s.Scan(nil, func(_ []uint32, m []float64) error { sum += m[0]; return nil })
	if sum != 3 {
		t.Fatalf("sum = %v, want 3", sum)
	}
}

func TestEnsureTieredEvictsColdestFirst(t *testing.T) {
	s := loadTiered(t)
	// Budget below even the compressed footprint forces eviction.
	c, ev, _, err := s.EnsureTiered(1024, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	if c == 0 || ev == 0 {
		t.Fatalf("EnsureTiered compressed=%d evicted=%d, want both > 0", c, ev)
	}
	if s.MemoryBytes() > s.UncompressedBytes() {
		t.Fatal("accounting broken")
	}
	// The hottest bricks (region bucket 0) must not be on SSD while colder
	// bricks are resident.
	var hottestEvicted, colderResident bool
	for _, h := range s.HotnessSnapshot() {
		bounds, _ := s.Schema().BrickBounds(h.BrickID)
		hot := bounds[0][0] == 0
		if hot && h.Hotness >= 50 {
			for _, e := range s.snapshotBricks() {
				if e.id == h.BrickID && e.b.IsEvicted() {
					hottestEvicted = true
				}
			}
		}
	}
	_ = colderResident
	if hottestEvicted {
		t.Fatal("hottest brick evicted while colder candidates existed")
	}
}

func TestEnsureTieredPromotesUnderSurplus(t *testing.T) {
	s := loadTiered(t)
	if _, _, _, err := s.EnsureTiered(0, 0.8); err != nil {
		t.Fatal(err) // evict everything
	}
	if s.EvictedBrickCount() == 0 {
		t.Fatal("setup: nothing evicted")
	}
	before := s.EvictedBrickCount()
	_, _, promoted, err := s.EnsureTiered(s.UncompressedBytes()*4, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if promoted == 0 || s.EvictedBrickCount() >= before {
		t.Fatalf("surplus promoted %d bricks (evicted %d -> %d)", promoted, before, s.EvictedBrickCount())
	}
}

func TestWorkingSetBytes(t *testing.T) {
	s := loadTiered(t)
	// Every brick has heat 40 from ingest alone; the 50-scan hot region
	// sits near 90. Threshold 60 selects just the hot working set.
	ws := s.WorkingSetBytes(60)
	if ws <= 0 || ws >= s.UncompressedBytes() {
		t.Fatalf("working set = %d of %d total — want a strict subset", ws, s.UncompressedBytes())
	}
	// Threshold 0 counts everything.
	if s.WorkingSetBytes(0) != s.UncompressedBytes() {
		t.Fatal("zero threshold must cover the full store")
	}
}

func TestSSDBytesAccounting(t *testing.T) {
	s := loadTiered(t)
	if s.SSDBytes() != 0 {
		t.Fatal("fresh store has SSD footprint")
	}
	s.EnsureTiered(0, 0.8)
	if s.SSDBytes() == 0 {
		t.Fatal("no SSD footprint after full eviction")
	}
	if s.MemoryBytes() != 0 {
		t.Fatalf("memory = %d after full eviction, want 0", s.MemoryBytes())
	}
}

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// compressedBricks returns n encoded bricks of rows rows each.
func compressedBricks(t testing.TB, n, rows int) []*Brick {
	t.Helper()
	out := make([]*Brick, n)
	for i := range out {
		b := newBrick(3, 2)
		for r := 0; r < rows; r++ {
			if err := b.append([]uint32{uint32(r % 4), uint32(i + r), uint32(r % 7)}, []float64{float64(r), 0.5 * float64(i)}); err != nil {
				t.Fatal(err)
			}
		}
		if err := b.Compress(); err != nil {
			t.Fatal(err)
		}
		out[i] = b
	}
	return out
}

// TestEvictAllocs pins the cost of evicting a small brick: the flate
// compressor comes from a pool, so an eviction allocates its output and
// little else, not a new megabyte-sized writer.
func TestEvictAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector randomly drops sync.Pool items")
	}
	const runs = 200
	bricks := compressedBricks(t, 2*(runs+1), 16)
	next := 0
	evict := func() {
		if err := bricks[next].Evict(); err != nil {
			t.Fatal(err)
		}
		next++
	}
	allocs := testing.AllocsPerRun(runs, evict)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		evict()
	}
	runtime.ReadMemStats(&after)
	perEvict := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("%.0f allocs, %d bytes per eviction", allocs, perEvict)
	if allocs > 4 || perEvict >= 16<<10 {
		t.Fatalf("evicting a 16-row brick allocates %.0f objects and %d bytes, ceilings are 4 and 16 KB", allocs, perEvict)
	}
}

// freshDeflate is flate with a writer of its own: the reference the pooled
// writer's output must match byte for byte.
func freshDeflate(t *testing.T, src []byte) []byte {
	t.Helper()
	var out bytes.Buffer
	w, err := flate.NewWriter(&out, flate.BestSpeed)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(src); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// TestPooledDeflateBytesUnchanged checks that a recycled writer produces
// what a new one does, for SSD payloads and for transfer blobs, so neither
// the SSD tier nor the shard-transfer wire changes.
func TestPooledDeflateBytesUnchanged(t *testing.T) {
	bricks := compressedBricks(t, 8, 300)
	for i, b := range bricks {
		enc := append([]byte(nil), b.encoded...)
		if err := b.Evict(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b.ssd, freshDeflate(t, enc)) {
			t.Fatalf("brick %d: pooled SSD payload differs from a new writer's", i)
		}
	}
	s := loadTiered(t)
	for round := 0; round < 2; round++ {
		blob, err := s.Export()
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(flate.NewReader(bytes.NewReader(blob)))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(blob, freshDeflate(t, raw)) {
			t.Fatalf("round %d: pooled export blob differs from a new writer's", round)
		}
		if _, _, _, err := s.EnsureTiered(1024, 0.8); err != nil {
			t.Fatal(err)
		}
	}
}

// brickBits returns every value the brick holds, metrics as their IEEE
// bits, in row order.
func brickBits(t *testing.T, b *Brick) []uint64 {
	var out []uint64
	err := b.visitBatch(nil, func(batch *Batch) error {
		for _, col := range batch.Dims {
			for _, v := range col[:batch.Rows] {
				out = append(out, uint64(v))
			}
		}
		for _, col := range batch.Metrics {
			for _, v := range col[:batch.Rows] {
				out = append(out, math.Float64bits(v))
			}
		}
		return nil
	})
	if err != nil {
		t.Error(err)
	}
	return out
}

// TestConcurrentEvictReadUnevict runs evictions, reads and promotions of
// distinct bricks at once (run with -race): the goroutines share the
// deflater and inflater pools, and every brick must read back bit for bit
// what it held before its first eviction.
func TestConcurrentEvictReadUnevict(t *testing.T) {
	bricks := compressedBricks(t, 16, 200)
	want := make([][]uint64, len(bricks))
	for i, b := range bricks {
		want[i] = brickBits(t, b)
	}
	var wg sync.WaitGroup
	for i := range bricks {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			b := bricks[i]
			for round := 0; round < 20; round++ {
				if err := b.Evict(); err != nil {
					t.Error(err)
					return
				}
				if got := brickBits(t, b); !slices.Equal(got, want[i]) {
					t.Errorf("brick %d round %d: evicted scan differs from the value before eviction", i, round)
					return
				}
				b.Unevict()
				if got := brickBits(t, b); !slices.Equal(got, want[i]) {
					t.Errorf("brick %d round %d: promoted scan differs from the value before eviction", i, round)
					return
				}
			}
		}(i)
	}
	wg.Wait()
}
