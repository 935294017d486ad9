package engine

import (
	"math"
	"testing"
	"testing/quick"

	"cubrick/internal/brick"
)

func testSchema() brick.Schema {
	return brick.Schema{
		Dimensions: []brick.Dimension{
			{Name: "region", Max: 4, Buckets: 2},
			{Name: "app", Max: 10, Buckets: 5},
		},
		Metrics: []brick.Metric{{Name: "events"}, {Name: "latency"}},
	}
}

// loadStore builds a store with one row per (region, app) combination:
// events = region*10 + app, latency = app.
func loadStore(t testing.TB) *brick.Store {
	t.Helper()
	s, err := brick.NewStore(testSchema())
	if err != nil {
		t.Fatal(err)
	}
	for r := uint32(0); r < 4; r++ {
		for a := uint32(0); a < 10; a++ {
			if err := s.Insert([]uint32{r, a}, []float64{float64(r*10 + a), float64(a)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	return s
}

func TestGlobalAggregates(t *testing.T) {
	s := loadStore(t)
	q := &Query{Aggregates: []Aggregate{
		{Func: Sum, Metric: "events"},
		{Func: Count},
		{Func: Min, Metric: "latency"},
		{Func: Max, Metric: "latency"},
		{Func: Avg, Metric: "latency"},
	}}
	p, err := runQuery(s, q)
	if err != nil {
		t.Fatal(err)
	}
	res := p.Finalize()
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(res.Rows))
	}
	row := res.Rows[0]
	// sum(events): sum over r,a of (10r+a) = 10*(0+1+2+3)*10 + 4*45 = 600+180=780
	if row[0] != 780 {
		t.Fatalf("sum = %v, want 780", row[0])
	}
	if row[1] != 40 {
		t.Fatalf("count = %v, want 40", row[1])
	}
	if row[2] != 0 || row[3] != 9 {
		t.Fatalf("min/max = %v/%v, want 0/9", row[2], row[3])
	}
	if row[4] != 4.5 {
		t.Fatalf("avg = %v, want 4.5", row[4])
	}
	if res.RowsScanned != 40 {
		t.Fatalf("RowsScanned = %d, want 40", res.RowsScanned)
	}
}

func TestGroupByWithFilter(t *testing.T) {
	s := loadStore(t)
	q := &Query{
		Aggregates: []Aggregate{{Func: Sum, Metric: "events", Alias: "total"}},
		GroupBy:    []string{"region"},
		Filter:     map[string][2]uint32{"app": {0, 4}},
	}
	p, err := runQuery(s, q)
	if err != nil {
		t.Fatal(err)
	}
	res := p.Finalize()
	if len(res.Rows) != 4 {
		t.Fatalf("groups = %d, want 4", len(res.Rows))
	}
	// For each region r: sum over a in [0,4] of (10r + a) = 50r + 10.
	for _, row := range res.Rows {
		r := row[0]
		if row[1] != 50*r+10 {
			t.Fatalf("region %v total = %v, want %v", r, row[1], 50*r+10)
		}
	}
	if res.Columns[0] != "region" || res.Columns[1] != "total" {
		t.Fatalf("columns = %v", res.Columns)
	}
}

func TestOrderByAndLimit(t *testing.T) {
	s := loadStore(t)
	q := &Query{
		Aggregates: []Aggregate{{Func: Sum, Metric: "events", Alias: "total"}},
		GroupBy:    []string{"app"},
		OrderBy:    "total",
		Desc:       true,
		Limit:      3,
	}
	p, _ := runQuery(s, q)
	res := p.Finalize()
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(res.Rows))
	}
	// total(app a) = sum over r of 10r+a = 60 + 4a; descending => apps 9,8,7.
	for i, wantApp := range []float64{9, 8, 7} {
		if res.Rows[i][0] != wantApp {
			t.Fatalf("row %d app = %v, want %v", i, res.Rows[i][0], wantApp)
		}
	}
	// Ascending order by group key when OrderBy empty.
	q2 := &Query{
		Aggregates: []Aggregate{{Func: Count}},
		GroupBy:    []string{"app"},
	}
	p2, _ := runQuery(s, q2)
	res2 := p2.Finalize()
	for i := 1; i < len(res2.Rows); i++ {
		if res2.Rows[i-1][0] >= res2.Rows[i][0] {
			t.Fatal("default order not ascending by group key")
		}
	}
}

func TestValidateErrors(t *testing.T) {
	schema := testSchema()
	cases := []*Query{
		{},
		{Aggregates: []Aggregate{{Func: Sum, Metric: "nope"}}},
		{Aggregates: []Aggregate{{Func: Count}}, GroupBy: []string{"nope"}},
		{Aggregates: []Aggregate{{Func: Count}}, Filter: map[string][2]uint32{"nope": {0, 1}}},
		{Aggregates: []Aggregate{{Func: Count}}, OrderBy: "nope"},
		{Aggregates: []Aggregate{{Func: Count}}, Limit: -1},
	}
	for i, q := range cases {
		if err := q.Validate(schema); err == nil {
			t.Errorf("case %d validated", i)
		}
	}
	ok := &Query{
		Aggregates: []Aggregate{{Func: Avg, Metric: "latency", Alias: "l"}},
		GroupBy:    []string{"region"},
		OrderBy:    "region",
	}
	if err := ok.Validate(schema); err != nil {
		t.Fatal(err)
	}
}

func TestAggregateNames(t *testing.T) {
	if (Aggregate{Func: Sum, Metric: "m"}).Name() != "sum(m)" {
		t.Fatal("default name wrong")
	}
	if (Aggregate{Func: Count}).Name() != "count(*)" {
		t.Fatal("count name wrong")
	}
	if (Aggregate{Func: Max, Metric: "m", Alias: "peak"}).Name() != "peak" {
		t.Fatal("alias ignored")
	}
	for f, want := range map[AggFunc]string{Sum: "sum", Count: "count", Min: "min", Max: "max", Avg: "avg"} {
		if f.String() != want {
			t.Fatalf("String(%v) = %q", int(f), f.String())
		}
	}
}

// The distributed-correctness invariant: executing the query over an
// arbitrary horizontal split of the data and merging partials gives the
// same result as executing over all data at once. Partial sharding relies
// on this to break tables into partitions.
func TestMergeEqualsSingleExecution(t *testing.T) {
	q := &Query{
		Aggregates: []Aggregate{
			{Func: Sum, Metric: "events"},
			{Func: Avg, Metric: "latency"},
			{Func: Min, Metric: "latency"},
			{Func: Max, Metric: "latency"},
			{Func: Count},
		},
		GroupBy: []string{"region"},
	}
	whole := loadStore(t)

	// Split rows across 3 partitions round-robin.
	parts := make([]*brick.Store, 3)
	for i := range parts {
		parts[i], _ = brick.NewStore(testSchema())
	}
	i := 0
	whole.Scan(nil, func(dims []uint32, metrics []float64) error {
		parts[i%3].Insert(append([]uint32(nil), dims...), append([]float64(nil), metrics...))
		i++
		return nil
	})

	pw, err := runQuery(whole, q)
	if err != nil {
		t.Fatal(err)
	}
	merged := NewPartial(q)
	for _, part := range parts {
		pp, err := runQuery(part, q)
		if err != nil {
			t.Fatal(err)
		}
		if err := merged.Merge(pp); err != nil {
			t.Fatal(err)
		}
	}
	a, b := pw.Finalize(), merged.Finalize()
	if len(a.Rows) != len(b.Rows) {
		t.Fatalf("row counts differ: %d vs %d", len(a.Rows), len(b.Rows))
	}
	for i := range a.Rows {
		for j := range a.Rows[i] {
			if math.Abs(a.Rows[i][j]-b.Rows[i][j]) > 1e-9 {
				t.Fatalf("row %d col %d: %v vs %v", i, j, a.Rows[i][j], b.Rows[i][j])
			}
		}
	}
	if a.RowsScanned != b.RowsScanned {
		t.Fatalf("RowsScanned differ: %d vs %d", a.RowsScanned, b.RowsScanned)
	}
}

// Property-based version over random row batches and random splits.
func TestMergeInvariantProperty(t *testing.T) {
	q := &Query{
		Aggregates: []Aggregate{
			{Func: Sum, Metric: "events"},
			{Func: Avg, Metric: "events"},
			{Func: Count},
		},
		GroupBy: []string{"app"},
	}
	f := func(rows []uint16, split uint8) bool {
		nParts := int(split%4) + 1
		whole, _ := brick.NewStore(testSchema())
		parts := make([]*brick.Store, nParts)
		for i := range parts {
			parts[i], _ = brick.NewStore(testSchema())
		}
		for i, v := range rows {
			dims := []uint32{uint32(v) % 4, uint32(v) % 10}
			m := []float64{float64(v), 1}
			whole.Insert(dims, m)
			parts[i%nParts].Insert(dims, m)
		}
		pw, err := runQuery(whole, q)
		if err != nil {
			return false
		}
		merged := NewPartial(q)
		for _, part := range parts {
			pp, err := runQuery(part, q)
			if err != nil {
				return false
			}
			if merged.Merge(pp) != nil {
				return false
			}
		}
		a, b := pw.Finalize(), merged.Finalize()
		if len(a.Rows) != len(b.Rows) {
			return false
		}
		for i := range a.Rows {
			for j := range a.Rows[i] {
				if math.Abs(a.Rows[i][j]-b.Rows[i][j]) > 1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestMergeMismatchedQueries(t *testing.T) {
	s := loadStore(t)
	q1 := &Query{Aggregates: []Aggregate{{Func: Count}}}
	q2 := &Query{Aggregates: []Aggregate{{Func: Count}, {Func: Sum, Metric: "events"}}}
	p1, _ := runQuery(s, q1)
	p2, _ := runQuery(s, q2)
	if err := p1.Merge(p2); err == nil {
		t.Fatal("merging different queries accepted")
	}
	if err := p1.Merge(nil); err != nil {
		t.Fatal("merging nil partial should be a no-op")
	}
}

func TestEmptyStoreResult(t *testing.T) {
	s, _ := brick.NewStore(testSchema())
	q := &Query{Aggregates: []Aggregate{{Func: Sum, Metric: "events"}}, GroupBy: []string{"region"}}
	p, err := runQuery(s, q)
	if err != nil {
		t.Fatal(err)
	}
	res := p.Finalize()
	if len(res.Rows) != 0 {
		t.Fatalf("rows from empty store = %d", len(res.Rows))
	}
	if p.Groups() != 0 {
		t.Fatalf("groups = %d", p.Groups())
	}
}

func TestMinMaxOnEmptyGroupFinalize(t *testing.T) {
	// A global aggregate over zero rows yields exactly one row (SQL
	// semantics), with min/max finalized to 0 rather than ±Inf.
	q := &Query{Aggregates: []Aggregate{{Func: Min, Metric: "events"}, {Func: Max, Metric: "events"}, {Func: Count}}}
	p := NewPartial(q)
	res := p.Finalize()
	if len(res.Rows) != 1 {
		t.Fatalf("empty global aggregate produced %d rows, want 1", len(res.Rows))
	}
	if res.Rows[0][0] != 0 || res.Rows[0][1] != 0 || res.Rows[0][2] != 0 {
		t.Fatalf("empty aggregates = %v, want zeros", res.Rows[0])
	}
}
