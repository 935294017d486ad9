package brick

import (
	"testing"
	"testing/quick"
)

func testSchema() Schema {
	return Schema{
		Dimensions: []Dimension{
			{Name: "region", Max: 16, Buckets: 4},
			{Name: "app", Max: 100, Buckets: 10},
			{Name: "day", Max: 365, Buckets: 73},
		},
		Metrics: []Metric{{Name: "events"}, {Name: "bytes"}},
	}
}

func TestSchemaValidate(t *testing.T) {
	if err := testSchema().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Schema{
		{},
		{Dimensions: []Dimension{{Name: "", Max: 4, Buckets: 2}}},
		{Dimensions: []Dimension{{Name: "a", Max: 0, Buckets: 1}}},
		{Dimensions: []Dimension{{Name: "a", Max: 4, Buckets: 0}}},
		{Dimensions: []Dimension{{Name: "a", Max: 2, Buckets: 4}}},
		{Dimensions: []Dimension{{Name: "a", Max: 4, Buckets: 2}, {Name: "a", Max: 4, Buckets: 2}}},
		{Dimensions: []Dimension{{Name: "a", Max: 4, Buckets: 2}}, Metrics: []Metric{{Name: ""}}},
		{Dimensions: []Dimension{{Name: "a", Max: 4, Buckets: 2}}, Metrics: []Metric{{Name: "a"}}},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad schema %d validated", i)
		}
	}
}

func TestIndexHelpers(t *testing.T) {
	s := testSchema()
	if s.DimIndex("app") != 1 || s.DimIndex("nope") != -1 {
		t.Fatal("DimIndex broken")
	}
	if s.MetricIndex("bytes") != 1 || s.MetricIndex("nope") != -1 {
		t.Fatal("MetricIndex broken")
	}
	if s.RowBytes() != 3*4+2*8 {
		t.Fatalf("RowBytes = %d", s.RowBytes())
	}
}

func TestBrickIDBounds(t *testing.T) {
	s := testSchema()
	id, err := s.BrickID([]uint32{0, 0, 0})
	if err != nil || id != 0 {
		t.Fatalf("BrickID(origin) = %d, %v", id, err)
	}
	// Max corner: region 15 -> bucket 3, app 99 -> bucket 9, day 364 -> 72.
	id, err = s.BrickID([]uint32{15, 99, 364})
	if err != nil {
		t.Fatal(err)
	}
	want := uint64(3)*10*73 + uint64(9)*73 + 72
	if id != want {
		t.Fatalf("BrickID(max) = %d, want %d", id, want)
	}
	if _, err := s.BrickID([]uint32{16, 0, 0}); err == nil {
		t.Fatal("out-of-domain value accepted")
	}
	if _, err := s.BrickID([]uint32{0, 0}); err == nil {
		t.Fatal("wrong arity accepted")
	}
}

// Property: every row's dimension values fall within the bounds of the
// brick BrickID assigns it to.
func TestBrickIDBoundsConsistencyProperty(t *testing.T) {
	s := testSchema()
	f := func(a, b, c uint32) bool {
		dims := []uint32{a % 16, b % 100, c % 365}
		id, err := s.BrickID(dims)
		if err != nil {
			return false
		}
		bounds, err := s.BrickBounds(id)
		if err != nil {
			return false
		}
		for i, d := range dims {
			if d < bounds[i][0] || d > bounds[i][1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestBrickBoundsRejectsOutOfRange(t *testing.T) {
	s := testSchema()
	if _, err := s.BrickBounds(4 * 10 * 73); err == nil {
		t.Fatal("out-of-range brick id accepted")
	}
}

func TestInsertAndScanAll(t *testing.T) {
	s, err := NewStore(testSchema())
	if err != nil {
		t.Fatal(err)
	}
	for i := uint32(0); i < 100; i++ {
		if err := s.Insert([]uint32{i % 16, i % 100, i % 365}, []float64{1, float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if s.Rows() != 100 {
		t.Fatalf("Rows = %d", s.Rows())
	}
	var count int
	var sum float64
	err = s.Scan(nil, func(dims []uint32, metrics []float64) error {
		count++
		sum += metrics[0]
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != 100 || sum != 100 {
		t.Fatalf("scan visited %d rows sum %v", count, sum)
	}
}

func TestInsertValidation(t *testing.T) {
	s, _ := NewStore(testSchema())
	if err := s.Insert([]uint32{0, 0, 0}, []float64{1}); err == nil {
		t.Fatal("wrong metric arity accepted")
	}
	if err := s.Insert([]uint32{99, 0, 0}, []float64{1, 2}); err == nil {
		t.Fatal("out-of-domain dim accepted")
	}
}

func TestScanWithFilterPrunes(t *testing.T) {
	s, _ := NewStore(testSchema())
	for r := uint32(0); r < 16; r++ {
		for a := uint32(0); a < 10; a++ {
			s.Insert([]uint32{r, a * 10, 0}, []float64{1, 0})
		}
	}
	// region in [4,7] is exactly bucket 1.
	f := &Filter{Ranges: map[int][2]uint32{0: {4, 7}}}
	var count int
	s.Scan(f, func(dims []uint32, metrics []float64) error {
		if dims[0] < 4 || dims[0] > 7 {
			t.Fatalf("row outside filter: %v", dims)
		}
		count++
		return nil
	})
	if count != 4*10 {
		t.Fatalf("filtered scan visited %d rows, want 40", count)
	}
}

func TestFilterSemantics(t *testing.T) {
	f := &Filter{Ranges: map[int][2]uint32{0: {5, 10}}}
	if f.Matches([]uint32{4}) || !f.Matches([]uint32{5}) || !f.Matches([]uint32{10}) || f.Matches([]uint32{11}) {
		t.Fatal("Matches boundaries wrong")
	}
	var nilF *Filter
	if !nilF.Matches([]uint32{0}) {
		t.Fatal("nil filter must match everything")
	}
	cls := func(f *Filter, lo, hi uint32) (overlaps, covers bool) {
		return classify(f.flat(nil), [][2]uint32{{lo, hi}})
	}
	if o, c := cls(nilF, 0, 1); !o || !c {
		t.Fatal("nil filter must overlap and cover")
	}
	o1, _ := cls(f, 10, 20)
	o2, _ := cls(f, 11, 20)
	if !o1 || o2 {
		t.Fatal("overlaps boundaries wrong")
	}
	_, c1 := cls(f, 6, 9)
	_, c2 := cls(f, 4, 9)
	if !c1 || c2 {
		t.Fatal("covers boundaries wrong")
	}
}

func TestCompressionRoundTrip(t *testing.T) {
	s, _ := NewStore(testSchema())
	for i := uint32(0); i < 1000; i++ {
		s.Insert([]uint32{i % 16, i % 100, i % 365}, []float64{float64(i), float64(i) * 0.5})
	}
	memBefore := s.MemoryBytes()
	// Compress everything.
	c, d, err := s.EnsureBudget(0, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if c == 0 || d != 0 {
		t.Fatalf("EnsureBudget(0) compressed %d decompressed %d", c, d)
	}
	if s.CompressedBrickCount() != s.BrickCount() {
		t.Fatal("not all bricks compressed")
	}
	if s.MemoryBytes() >= memBefore {
		t.Fatalf("compression did not shrink memory: %d -> %d", memBefore, s.MemoryBytes())
	}
	// Scanning compressed data returns identical results.
	var sum float64
	if err := s.Scan(nil, func(_ []uint32, m []float64) error { sum += m[0]; return nil }); err != nil {
		t.Fatal(err)
	}
	want := float64(999*1000) / 2
	if sum != want {
		t.Fatalf("sum over compressed store = %v, want %v", sum, want)
	}
	if s.Decompressions() == 0 {
		t.Fatal("scan over compressed bricks did not count decompressions")
	}
	// Scan must not have changed stored state.
	if s.CompressedBrickCount() != s.BrickCount() {
		t.Fatal("scan decompressed bricks permanently")
	}
}

func TestAdaptiveCompressionHotColdOrdering(t *testing.T) {
	s, _ := NewStore(testSchema())
	for i := uint32(0); i < 1600; i++ {
		s.Insert([]uint32{i % 16, (i / 16) % 100, 0}, []float64{1, 1})
	}
	// Heat bricks in region bucket 0 by scanning them repeatedly.
	hotFilter := &Filter{Ranges: map[int][2]uint32{0: {0, 3}}}
	for i := 0; i < 50; i++ {
		s.Scan(hotFilter, func([]uint32, []float64) error { return nil })
	}
	// Budget forces compressing roughly half the bricks.
	budget := s.MemoryBytes() / 2
	if _, _, err := s.EnsureBudget(budget, 0.9); err != nil {
		t.Fatal(err)
	}
	// The hot bricks must have survived uncompressed.
	for _, h := range s.HotnessSnapshot() {
		bounds, _ := s.Schema().BrickBounds(h.BrickID)
		isHot := bounds[0][0] == 0 // region bucket 0 covers values 0..3
		if isHot && h.Compressed {
			t.Fatalf("hot brick %d compressed while cold ones exist", h.BrickID)
		}
	}
	// Under surplus, hottest decompress first.
	comp := s.CompressedBrickCount()
	if comp == 0 {
		t.Fatal("test setup: nothing compressed")
	}
	_, d, err := s.EnsureBudget(s.UncompressedBytes()*2, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if d == 0 {
		t.Fatal("surplus did not decompress anything")
	}
	if s.CompressedBrickCount() >= comp {
		t.Fatal("decompression did not reduce compressed count")
	}
}

func TestDecayHotness(t *testing.T) {
	s, _ := NewStore(testSchema())
	s.Insert([]uint32{0, 0, 0}, []float64{1, 1})
	s.Scan(nil, func([]uint32, []float64) error { return nil })
	h0 := s.HotnessSnapshot()[0].Hotness
	if h0 <= 0 {
		t.Fatal("no heat after scan")
	}
	s.DecayHotness(0.5)
	h1 := s.HotnessSnapshot()[0].Hotness
	if h1 != h0*0.5 {
		t.Fatalf("decay: %v -> %v, want halved", h0, h1)
	}
}

func TestInsertIntoCompressedBrickDecompresses(t *testing.T) {
	s, _ := NewStore(testSchema())
	s.Insert([]uint32{0, 0, 0}, []float64{1, 2})
	s.EnsureBudget(0, 0.5)
	if s.CompressedBrickCount() != 1 {
		t.Fatal("setup: brick not compressed")
	}
	if err := s.Insert([]uint32{0, 0, 0}, []float64{3, 4}); err != nil {
		t.Fatal(err)
	}
	var sum float64
	s.Scan(nil, func(_ []uint32, m []float64) error { sum += m[0]; return nil })
	if sum != 4 {
		t.Fatalf("sum after ingest into compressed brick = %v, want 4", sum)
	}
}

func TestExportImportRoundTrip(t *testing.T) {
	src, _ := NewStore(testSchema())
	for i := uint32(0); i < 500; i++ {
		src.Insert([]uint32{i % 16, i % 100, i % 365}, []float64{float64(i), 1})
	}
	// Compress some bricks to prove Export handles both representations.
	src.EnsureBudget(src.MemoryBytes()/2, 0.9)
	blob, err := src.Export()
	if err != nil {
		t.Fatal(err)
	}
	dst, _ := NewStore(testSchema())
	if err := dst.Import(blob); err != nil {
		t.Fatal(err)
	}
	if dst.Rows() != src.Rows() {
		t.Fatalf("imported %d rows, want %d", dst.Rows(), src.Rows())
	}
	var srcSum, dstSum float64
	src.Scan(nil, func(_ []uint32, m []float64) error { srcSum += m[0]; return nil })
	dst.Scan(nil, func(_ []uint32, m []float64) error { dstSum += m[0]; return nil })
	if srcSum != dstSum {
		t.Fatalf("sums differ after migration: %v != %v", srcSum, dstSum)
	}
}

func TestImportRejectsGarbage(t *testing.T) {
	s, _ := NewStore(testSchema())
	if err := s.Import([]byte("not a blob")); err == nil {
		t.Fatal("garbage import accepted")
	}
}

// Property: inserting any batch of valid rows and summing metric 0 over a
// full scan equals the inserted sum, with and without compression.
func TestScanSumInvariantProperty(t *testing.T) {
	f := func(vals []uint16) bool {
		s, _ := NewStore(testSchema())
		var want float64
		for _, v := range vals {
			dims := []uint32{uint32(v) % 16, uint32(v) % 100, uint32(v) % 365}
			m := float64(v%97) + 0.5
			if err := s.Insert(dims, []float64{m, 0}); err != nil {
				return false
			}
			want += m
		}
		sum := func() float64 {
			var got float64
			s.Scan(nil, func(_ []uint32, m []float64) error { got += m[0]; return nil })
			return got
		}
		if sum() != want {
			return false
		}
		s.EnsureBudget(0, 0.5) // compress everything
		return sum() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyBrickCompressNoop(t *testing.T) {
	b := newBrick(1, 1)
	if err := b.Compress(); err != nil {
		t.Fatal(err)
	}
	if b.IsCompressed() {
		t.Fatal("empty brick claims compressed")
	}
	if err := b.Decompress(); err != nil {
		t.Fatal(err)
	}
}
