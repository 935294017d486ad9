package brick

import (
	"fmt"
	"sort"
	"testing"
)

func batchSchema() Schema {
	return Schema{
		Dimensions: []Dimension{
			{Name: "ds", Max: 30, Buckets: 6},
			{Name: "app", Max: 20, Buckets: 4},
		},
		Metrics: []Metric{{Name: "value"}, {Name: "weight"}},
	}
}

// scanRows drains a store into sorted row strings for order-insensitive
// comparison (bricks store rows unordered).
func scanRows(t *testing.T, s *Store) []string {
	t.Helper()
	var out []string
	err := s.Scan(nil, func(dims []uint32, metrics []float64) error {
		out = append(out, fmt.Sprint(dims, metrics))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(out)
	return out
}

func makeBatch(rows int) (dimCols [][]uint32, metricCols [][]float64) {
	dimCols = [][]uint32{make([]uint32, rows), make([]uint32, rows)}
	metricCols = [][]float64{make([]float64, rows), make([]float64, rows)}
	for r := 0; r < rows; r++ {
		dimCols[0][r] = uint32(r) % 30
		dimCols[1][r] = uint32(r*7) % 20
		metricCols[0][r] = float64(r)
		metricCols[1][r] = float64(r % 5)
	}
	return dimCols, metricCols
}

func TestInsertBatchEqualsInsert(t *testing.T) {
	const rows = 500
	dimCols, metricCols := makeBatch(rows)

	serial, _ := NewStore(batchSchema())
	for r := 0; r < rows; r++ {
		if err := serial.Insert([]uint32{dimCols[0][r], dimCols[1][r]},
			[]float64{metricCols[0][r], metricCols[1][r]}); err != nil {
			t.Fatal(err)
		}
	}
	batched, _ := NewStore(batchSchema())
	if err := batched.InsertBatch(dimCols, metricCols); err != nil {
		t.Fatal(err)
	}

	if serial.Rows() != batched.Rows() {
		t.Fatalf("rows %d vs %d", serial.Rows(), batched.Rows())
	}
	if serial.BrickCount() != batched.BrickCount() {
		t.Fatalf("bricks %d vs %d", serial.BrickCount(), batched.BrickCount())
	}
	a, b := scanRows(t, serial), scanRows(t, batched)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("row %d: %s vs %s", i, a[i], b[i])
		}
	}
	// Per-row Insert touches each brick once per row; the batch must carry
	// the same total heat.
	var heatA, heatB float64
	for _, h := range serial.HotnessSnapshot() {
		heatA += h.Hotness
	}
	for _, h := range batched.HotnessSnapshot() {
		heatB += h.Hotness
	}
	if heatA != heatB {
		t.Fatalf("heat %v vs %v", heatA, heatB)
	}
}

// insertRows inserts a row-major batch (dims[r][d], mets[r][m]) through
// InsertBatch, transposing it into the store's columns first.
func insertRows(s *Store, dims [][]uint32, mets [][]float64) error {
	dimCols := make([][]uint32, len(s.Schema().Dimensions))
	for d := range dimCols {
		dimCols[d] = make([]uint32, len(dims))
		for r := range dims {
			dimCols[d][r] = dims[r][d]
		}
	}
	metCols := make([][]float64, len(s.Schema().Metrics))
	for m := range metCols {
		metCols[m] = make([]float64, len(mets))
		for r := range mets {
			metCols[m][r] = mets[r][m]
		}
	}
	return s.InsertBatch(dimCols, metCols)
}

// TestInsertBatchAtomic pins the all-or-nothing contract: a batch with one
// out-of-domain row leaves the store untouched, unlike a per-row loop.
func TestInsertBatchAtomic(t *testing.T) {
	s, _ := NewStore(batchSchema())
	dimCols := [][]uint32{{1, 2, 999}, {1, 2, 3}} // third row out of domain
	metricCols := [][]float64{{1, 2, 3}, {0, 0, 0}}
	if err := s.InsertBatch(dimCols, metricCols); err == nil {
		t.Fatal("out-of-domain batch accepted")
	}
	if s.Rows() != 0 || s.BrickCount() != 0 {
		t.Fatalf("failed batch mutated store: %d rows, %d bricks", s.Rows(), s.BrickCount())
	}
}

func TestInsertBatchValidation(t *testing.T) {
	s, _ := NewStore(batchSchema())
	if err := s.InsertBatch([][]uint32{{1}}, [][]float64{{1}, {1}}); err == nil {
		t.Fatal("wrong dim column count accepted")
	}
	if err := s.InsertBatch([][]uint32{{1}, {1}}, [][]float64{{1}}); err == nil {
		t.Fatal("wrong metric column count accepted")
	}
	if err := s.InsertBatch([][]uint32{{1, 2}, {1}}, [][]float64{{1, 2}, {1, 2}}); err == nil {
		t.Fatal("ragged dim columns accepted")
	}
	if err := s.InsertBatch([][]uint32{{1}, {1}}, [][]float64{{1}, {1, 2}}); err == nil {
		t.Fatal("ragged metric columns accepted")
	}
	if err := s.InsertBatch([][]uint32{{}, {}}, [][]float64{{}, {}}); err != nil {
		t.Fatalf("empty batch rejected: %v", err)
	}
}

// TestInsertBatchIntoCompressed: batch ingest into a fully compressed
// store must decompress the touched bricks (ingest heats data), exactly
// like per-row Insert.
func TestInsertBatchIntoCompressed(t *testing.T) {
	s, _ := NewStore(batchSchema())
	dimCols, metricCols := makeBatch(300)
	if err := s.InsertBatch(dimCols, metricCols); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.EnsureBudget(0, 0.5); err != nil {
		t.Fatal(err)
	}
	if s.CompressedBrickCount() == 0 {
		t.Fatal("setup: nothing compressed")
	}
	if err := s.InsertBatch(dimCols, metricCols); err != nil {
		t.Fatal(err)
	}
	if s.Rows() != 600 {
		t.Fatalf("rows = %d, want 600", s.Rows())
	}
	if got := len(scanRows(t, s)); got != 600 {
		t.Fatalf("scan found %d rows, want 600", got)
	}
}
