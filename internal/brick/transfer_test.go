package brick

import (
	"bytes"
	"compress/flate"
	"runtime"
	"testing"
)

func scanSum(s *Store) float64 {
	var sum float64
	s.Scan(nil, func(_ []uint32, m []float64) error { sum += m[0]; return nil })
	return sum
}

// TestExportSinceDelta exercises the snapshot-then-tail protocol a shard
// migration uses: full ship, more ingest on the source, then a delta that
// must carry exactly the changed bricks and close the gap.
func TestExportSinceDelta(t *testing.T) {
	src, _ := NewStore(testSchema())
	for i := uint32(0); i < 300; i++ {
		src.Insert([]uint32{i % 16, i % 100, i % 365}, []float64{1, 0})
	}
	full, covered, err := src.ExportSince(0)
	if err != nil {
		t.Fatal(err)
	}
	if covered != src.Epoch() {
		t.Fatalf("covered epoch %d, store epoch %d", covered, src.Epoch())
	}

	dst, _ := NewStore(testSchema())
	if _, err := dst.ImportBricks(full); err != nil {
		t.Fatal(err)
	}
	if dst.Rows() != src.Rows() {
		t.Fatalf("snapshot ship: %d rows, want %d", dst.Rows(), src.Rows())
	}

	// Tail: new ingest lands in a handful of bricks; the delta must ship
	// only bricks whose epoch moved past the covered point.
	for i := uint32(0); i < 40; i++ {
		src.Insert([]uint32{i % 4, i % 10, i % 7}, []float64{2, 0})
	}
	delta, covered2, err := src.ExportSince(covered)
	if err != nil {
		t.Fatal(err)
	}
	if covered2 <= covered {
		t.Fatalf("covered epoch did not advance: %d -> %d", covered, covered2)
	}
	if len(delta) >= len(full) {
		t.Fatalf("delta (%d bytes) not smaller than full export (%d bytes)", len(delta), len(full))
	}
	if _, err := dst.ImportBricks(delta); err != nil {
		t.Fatal(err)
	}
	if dst.Rows() != src.Rows() {
		t.Fatalf("after catch-up: %d rows, want %d", dst.Rows(), src.Rows())
	}
	if got, want := scanSum(dst), scanSum(src); got != want {
		t.Fatalf("sums differ after catch-up: %v != %v", got, want)
	}

	// Gap closed: a delta since covered2 must be empty of bricks.
	empty, _, err := src.ExportSince(covered2)
	if err != nil {
		t.Fatal(err)
	}
	n, err := transferBrickCount(empty)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("delta after gap closed ships %d bricks", n)
	}
}

// transferBrickCount decodes just the brick-count header of a blob.
func transferBrickCount(blob []byte) (uint64, error) {
	fr := flate.NewReader(bytes.NewReader(blob))
	var head [16]byte
	n, _ := fr.Read(head[:])
	if n == 0 {
		return 0, nil
	}
	count, used := uvarint(head[:n])
	if used <= 0 {
		return 0, nil
	}
	return count, nil
}

func uvarint(b []byte) (uint64, int) {
	var v uint64
	for i, c := range b {
		v |= uint64(c&0x7f) << (7 * uint(i))
		if c < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}

// TestImportBricksIdempotent replays the crash-after-partial-ack case: the
// driver re-ships a delta the target already applied. Replace-by-id makes
// the second apply a no-op in content.
func TestImportBricksIdempotent(t *testing.T) {
	src, _ := NewStore(testSchema())
	for i := uint32(0); i < 200; i++ {
		src.Insert([]uint32{i % 16, i % 100, i % 365}, []float64{float64(i), 1})
	}
	blob, _, err := src.ExportSince(0)
	if err != nil {
		t.Fatal(err)
	}
	dst, _ := NewStore(testSchema())
	for round := 0; round < 3; round++ {
		if _, err := dst.ImportBricks(blob); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if dst.Rows() != src.Rows() {
			t.Fatalf("round %d: %d rows, want %d", round, dst.Rows(), src.Rows())
		}
		if got, want := scanSum(dst), scanSum(src); got != want {
			t.Fatalf("round %d: sums differ: %v != %v", round, got, want)
		}
	}
}

// TestImportBricksMergesDisjoint checks bricks absent from the blob are
// untouched — a delta import must not wipe the snapshot underneath it.
func TestImportBricksMergesDisjoint(t *testing.T) {
	dst, _ := NewStore(testSchema())
	// Resident rows in one brick corner.
	for i := 0; i < 50; i++ {
		dst.Insert([]uint32{0, 0, 0}, []float64{1, 0})
	}
	resident := dst.Rows()

	other, _ := NewStore(testSchema())
	for i := 0; i < 30; i++ {
		other.Insert([]uint32{15, 99, 364}, []float64{1, 0})
	}
	blob, _, err := other.ExportSince(0)
	if err != nil {
		t.Fatal(err)
	}
	gained, err := dst.ImportBricks(blob)
	if err != nil {
		t.Fatal(err)
	}
	if gained != other.Rows() {
		t.Fatalf("gained %d rows, want %d", gained, other.Rows())
	}
	if dst.Rows() != resident+other.Rows() {
		t.Fatalf("rows = %d, want %d", dst.Rows(), resident+other.Rows())
	}
}

// TestImportBricksAtomicOnGarbage: a blob that fails to decode must leave
// the store untouched, even if earlier bricks in the blob were valid.
func TestImportBricksAtomicOnGarbage(t *testing.T) {
	src, _ := NewStore(testSchema())
	for i := uint32(0); i < 100; i++ {
		src.Insert([]uint32{i % 16, i % 100, i % 365}, []float64{1, 0})
	}
	good, _, _ := src.ExportSince(0)
	// Corrupt the tail of the decompressed stream by truncating the blob.
	bad := good[:len(good)/2]

	dst, _ := NewStore(testSchema())
	dst.Insert([]uint32{1, 1, 1}, []float64{7, 0})
	before := dst.Rows()
	if _, err := dst.ImportBricks(bad); err == nil {
		t.Fatal("truncated blob accepted")
	}
	if dst.Rows() != before {
		t.Fatalf("failed import changed rows: %d -> %d", before, dst.Rows())
	}
	if got := scanSum(dst); got != 7 {
		t.Fatalf("failed import changed data: sum = %v", got)
	}
}

// TestAdvanceEpochTo: the migration target continues the source's epoch
// line; advancing never lowers the counter and later ingest moves past it.
func TestAdvanceEpochTo(t *testing.T) {
	s, _ := NewStore(testSchema())
	s.Insert([]uint32{0, 0, 0}, []float64{1, 0})
	low := s.Epoch()
	s.AdvanceEpochTo(low + 100)
	if got := s.Epoch(); got != low+100 {
		t.Fatalf("epoch = %d, want %d", got, low+100)
	}
	s.AdvanceEpochTo(5) // lower: must be a no-op
	if got := s.Epoch(); got != low+100 {
		t.Fatalf("AdvanceEpochTo lowered epoch to %d", got)
	}
	s.Insert([]uint32{0, 0, 0}, []float64{1, 0})
	if got := s.Epoch(); got <= low+100 {
		t.Fatalf("ingest after advance did not move epoch: %d", got)
	}
}

// TestImportBricksAllocs pins the cost of applying a small delta, the
// common migration catch-up round: the blob inflates through the pooled
// inflater, so an import allocates the brick it builds and little else, not
// a new flate decoder of tens of kilobytes.
func TestImportBricksAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector randomly drops sync.Pool items")
	}
	src, _ := NewStore(testSchema())
	src.Insert([]uint32{1, 2, 3}, []float64{1, 2})
	delta, _, err := src.ExportSince(0)
	if err != nil {
		t.Fatal(err)
	}
	dst, _ := NewStore(testSchema())
	imp := func() {
		if _, err := dst.ImportBricks(delta); err != nil {
			t.Fatal(err)
		}
	}
	const runs = 200
	allocs := testing.AllocsPerRun(runs, imp)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		imp()
	}
	runtime.ReadMemStats(&after)
	perImport := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("%d-byte delta: %.0f allocs, %d bytes per import", len(delta), allocs, perImport)
	if allocs > 30 || perImport >= 8<<10 {
		t.Fatalf("importing a %d-byte one-brick delta allocates %.0f objects and %d bytes, ceilings are 30 and 8 KB", len(delta), allocs, perImport)
	}
}
