package cubrick_test

import (
	"context"
	"testing"

	cubrick "cubrick"
)

// setupDictTable builds a table whose "country" dimension is
// dictionary-encoded, with known per-country sums.
func setupDictTable(t *testing.T) (*cubrick.DB, map[string]float64) {
	t.Helper()
	db := openDB(t)
	schema := cubrick.Schema{
		Dimensions: []cubrick.Dimension{
			{Name: "ds", Max: 30, Buckets: 6},
			{Name: "country", Max: 64, Buckets: 8},
		},
		Metrics: []cubrick.Metric{{Name: "revenue"}},
	}
	if err := db.CreateTable("sales", schema); err != nil {
		t.Fatal(err)
	}
	if err := db.EnableDictionary("sales", "country"); err != nil {
		t.Fatal(err)
	}
	countries := []string{"US", "BR", "JP", "DE"}
	want := make(map[string]float64)
	var dims [][]uint32
	var mets [][]float64
	for day := uint32(0); day < 10; day++ {
		for i, c := range countries {
			id, err := db.Encode("sales", "country", c)
			if err != nil {
				t.Fatal(err)
			}
			rev := float64((i + 1) * 10)
			dims = append(dims, []uint32{day, id})
			mets = append(mets, []float64{rev})
			want[c] += rev
		}
	}
	if err := db.Load("sales", dims, mets); err != nil {
		t.Fatal(err)
	}
	return db, want
}

func TestDictionaryStringFilter(t *testing.T) {
	db, want := setupDictTable(t)
	res, err := db.Query(context.Background(), "SELECT SUM(revenue) AS total FROM sales WHERE country = 'BR'")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0] != want["BR"] {
		t.Fatalf("BR total = %v, want %v", res.Rows[0][0], want["BR"])
	}
	// Combined with numeric predicates.
	res, err = db.Query(context.Background(), "SELECT SUM(revenue) FROM sales WHERE country = 'JP' AND ds < 5")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0] != want["JP"]/2 {
		t.Fatalf("JP first half = %v, want %v", res.Rows[0][0], want["JP"]/2)
	}
}

func TestDictionaryUnknownLabelEmptyResult(t *testing.T) {
	db, _ := setupDictTable(t)
	res, err := db.Query(context.Background(), "SELECT COUNT(*) AS n FROM sales WHERE country = 'ATLANTIS'")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0] != 0 {
		t.Fatalf("unknown label count = %v, want 0", res.Rows[0][0])
	}
}

func TestDictionaryEscapedQuoteAndDecode(t *testing.T) {
	db, _ := setupDictTable(t)
	id, err := db.Encode("sales", "country", "COTE D'IVOIRE")
	if err != nil {
		t.Fatal(err)
	}
	db.Load("sales", [][]uint32{{1, id}}, [][]float64{{7}})
	res, err := db.Query(context.Background(), "SELECT SUM(revenue) FROM sales WHERE country = 'COTE D''IVOIRE'")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0] != 7 {
		t.Fatalf("escaped label sum = %v, want 7", res.Rows[0][0])
	}
	// Decode round trip.
	s, err := db.Decode("sales", "country", id)
	if err != nil || s != "COTE D'IVOIRE" {
		t.Fatalf("Decode = %q, %v", s, err)
	}
}

func TestDictionaryErrors(t *testing.T) {
	db, _ := setupDictTable(t)
	if err := db.EnableDictionary("ghost", "x"); err == nil {
		t.Fatal("unknown table accepted")
	}
	if err := db.EnableDictionary("sales", "nope"); err == nil {
		t.Fatal("unknown dimension accepted")
	}
	if _, err := db.Encode("sales", "ds", "x"); err == nil {
		t.Fatal("encode on non-dictionary dimension accepted")
	}
	if _, err := db.Decode("sales", "ds", 0); err == nil {
		t.Fatal("decode on non-dictionary dimension accepted")
	}
	// String predicate on a non-dictionary dimension errors clearly.
	if _, err := db.Query(context.Background(), "SELECT COUNT(*) FROM sales WHERE ds = 'monday'"); err == nil {
		t.Fatal("string predicate on numeric dimension accepted")
	}
	// Non-equality operator with a string is a parse error.
	if _, err := db.Query(context.Background(), "SELECT COUNT(*) FROM sales WHERE country < 'US'"); err == nil {
		t.Fatal("ordered comparison on string accepted")
	}
}

func TestDictionaryGroupByDecodes(t *testing.T) {
	db, want := setupDictTable(t)
	res, err := db.Query(context.Background(), "SELECT country, SUM(revenue) AS total FROM sales GROUP BY country ORDER BY total DESC")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("groups = %d", len(res.Rows))
	}
	// Top group decodes to the highest-revenue country (DE at 4×10).
	top, err := db.Decode("sales", "country", uint32(res.Rows[0][0]))
	if err != nil {
		t.Fatal(err)
	}
	if top != "DE" || res.Rows[0][1] != want["DE"] {
		t.Fatalf("top group = %s/%v, want DE/%v", top, res.Rows[0][1], want["DE"])
	}
}

func TestCountDistinctThroughCQL(t *testing.T) {
	db, _ := setupDictTable(t)
	res, err := db.Query(context.Background(), "SELECT COUNT(DISTINCT country) AS countries FROM sales")
	if err != nil {
		t.Fatal(err)
	}
	if res.Columns[0] != "countries" {
		t.Fatalf("columns = %v", res.Columns)
	}
	if res.Rows[0][0] != 4 {
		t.Fatalf("distinct countries = %v, want 4", res.Rows[0][0])
	}
	// Per-group distinct with ordering on the aggregate form.
	res, err = db.Query(context.Background(), "SELECT ds, COUNT(DISTINCT country) FROM sales GROUP BY ds ORDER BY count_distinct(country) DESC LIMIT 3")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row[1] != 4 {
			t.Fatalf("per-day distinct = %v, want 4", row[1])
		}
	}
}
