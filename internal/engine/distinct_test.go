package engine

import (
	"math"
	"testing"

	"cubrick/internal/brick"
)

func TestCountDistinctExactSmall(t *testing.T) {
	s := loadStore(t) // 4 regions × 10 apps, one row each
	q := &Query{Aggregates: []Aggregate{
		{Func: CountDistinct, Metric: "app", Alias: "apps"},
		{Func: CountDistinct, Metric: "region", Alias: "regions"},
	}}
	p, err := runQuery(s, q)
	if err != nil {
		t.Fatal(err)
	}
	res := p.Finalize()
	if res.Rows[0][0] != 10 {
		t.Fatalf("distinct apps = %v, want 10 (small cardinalities are exact)", res.Rows[0][0])
	}
	if res.Rows[0][1] != 4 {
		t.Fatalf("distinct regions = %v, want 4", res.Rows[0][1])
	}
}

func TestCountDistinctPerGroup(t *testing.T) {
	s := loadStore(t)
	q := &Query{
		Aggregates: []Aggregate{{Func: CountDistinct, Metric: "app", Alias: "apps"}},
		GroupBy:    []string{"region"},
	}
	p, _ := runQuery(s, q)
	res := p.Finalize()
	if len(res.Rows) != 4 {
		t.Fatalf("groups = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row[1] != 10 {
			t.Fatalf("region %v distinct apps = %v, want 10", row[0], row[1])
		}
	}
}

func TestCountDistinctValidation(t *testing.T) {
	schema := testSchema()
	q := &Query{Aggregates: []Aggregate{{Func: CountDistinct, Metric: "events"}}} // a metric, not a dim
	if err := q.Validate(schema); err == nil {
		t.Fatal("COUNT(DISTINCT metric) accepted")
	}
	q = &Query{Aggregates: []Aggregate{{Func: CountDistinct, Metric: "ghost"}}}
	if err := q.Validate(schema); err == nil {
		t.Fatal("COUNT(DISTINCT ghost) accepted")
	}
	if CountDistinct.String() != "count_distinct" {
		t.Fatal("String broken")
	}
	if (Aggregate{Func: CountDistinct, Metric: "app"}).Name() != "count_distinct(app)" {
		t.Fatal("Name broken")
	}
}

// The distributed invariant: distinct counts merged across partitions equal
// the single-store estimate (sketch merge is lossless).
func TestCountDistinctMergeEqualsSingle(t *testing.T) {
	whole, _ := brick.NewStore(testSchema())
	parts := make([]*brick.Store, 4)
	for i := range parts {
		parts[i], _ = brick.NewStore(testSchema())
	}
	for i := 0; i < 5000; i++ {
		dims := []uint32{uint32(i) % 4, uint32(i) % 10}
		m := []float64{float64(i), 0}
		whole.Insert(dims, m)
		parts[i%4].Insert(dims, m)
	}
	q := &Query{Aggregates: []Aggregate{{Func: CountDistinct, Metric: "app"}}}
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
		merged.Merge(pp)
	}
	a, b := pw.Finalize(), merged.Finalize()
	if a.Rows[0][0] != b.Rows[0][0] {
		t.Fatalf("merged distinct %v != single %v", b.Rows[0][0], a.Rows[0][0])
	}
}

func TestCountDistinctWireRoundTrip(t *testing.T) {
	s := loadStore(t)
	q := &Query{
		Aggregates: []Aggregate{{Func: CountDistinct, Metric: "app"}, {Func: Count}},
		GroupBy:    []string{"region"},
	}
	p, _ := runQuery(s, q)
	blob, err := p.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	p2, err := UnmarshalPartial(q, blob)
	if err != nil {
		t.Fatal(err)
	}
	a, b := p.Finalize(), p2.Finalize()
	for i := range a.Rows {
		for j := range a.Rows[i] {
			if a.Rows[i][j] != b.Rows[i][j] {
				t.Fatalf("wire round trip changed row %d col %d: %v vs %v", i, j, a.Rows[i][j], b.Rows[i][j])
			}
		}
	}
	// Merging deserialized sketches stays lossless.
	m := NewPartial(q)
	m.Merge(p2)
	m.Merge(p2) // idempotent
	c := m.Finalize()
	for i := range a.Rows {
		if math.Abs(a.Rows[i][1]-c.Rows[i][1]) > 1e-9 {
			t.Fatalf("distinct after double merge drifted: %v vs %v", a.Rows[i][1], c.Rows[i][1])
		}
	}
}

func TestCountDistinctJoinAttr(t *testing.T) {
	fact, dim := buildJoinStores(t)
	q := &Query{Aggregates: []Aggregate{
		{Func: CountDistinct, Metric: "team", Alias: "teams"},
		{Func: CountDistinct, Metric: "app", Alias: "apps"},
	}}
	p, err := ExecuteJoin(fact, dim, q, joinSpec())
	if err != nil {
		t.Fatal(err)
	}
	res := p.Finalize()
	if res.Rows[0][0] != 4 {
		t.Fatalf("distinct teams = %v, want 4", res.Rows[0][0])
	}
	if res.Rows[0][1] != 20 {
		t.Fatalf("distinct apps = %v, want 20", res.Rows[0][1])
	}
	// Unknown distinct column rejected.
	bad := &Query{Aggregates: []Aggregate{{Func: CountDistinct, Metric: "ghost"}}}
	if _, err := ExecuteJoin(fact, dim, bad, joinSpec()); err == nil {
		t.Fatal("COUNT(DISTINCT ghost) in join accepted")
	}
}

func TestCountDistinctLargeWithinError(t *testing.T) {
	schema := brick.Schema{
		Dimensions: []brick.Dimension{{Name: "user", Max: 1 << 20, Buckets: 64}},
		Metrics:    []brick.Metric{{Name: "v"}},
	}
	s, _ := brick.NewStore(schema)
	const n = 200000
	for i := 0; i < n; i++ {
		s.Insert([]uint32{uint32(i)}, []float64{1})
	}
	q := &Query{Aggregates: []Aggregate{{Func: CountDistinct, Metric: "user"}}}
	p, _ := runQuery(s, q)
	got := p.Finalize().Rows[0][0]
	if math.Abs(got-n)/n > 0.05 {
		t.Fatalf("distinct(%d) = %v — error too large", n, got)
	}
}

func TestHavingFiltersGroups(t *testing.T) {
	s := loadStore(t)
	// total(app a) = 60 + 4a over regions; HAVING total > 80 keeps a ≥ 6.
	q := &Query{
		Aggregates: []Aggregate{{Func: Sum, Metric: "events", Alias: "total"}},
		GroupBy:    []string{"app"},
		Having:     []HavingCond{{Column: "total", Op: ">", Value: 80}},
	}
	p, err := runQuery(s, q)
	if err != nil {
		t.Fatal(err)
	}
	res := p.Finalize()
	if len(res.Rows) != 4 { // apps 6,7,8,9
		t.Fatalf("groups after HAVING = %d, want 4", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row[1] <= 80 {
			t.Fatalf("HAVING leaked group %v", row)
		}
	}
	// HAVING on a group column, combined with a second condition.
	q2 := &Query{
		Aggregates: []Aggregate{{Func: Count, Alias: "n"}},
		GroupBy:    []string{"app"},
		Having: []HavingCond{
			{Column: "app", Op: ">=", Value: 3},
			{Column: "app", Op: "<", Value: 6},
		},
	}
	p2, _ := runQuery(s, q2)
	if got := len(p2.Finalize().Rows); got != 3 {
		t.Fatalf("combined HAVING groups = %d, want 3", got)
	}
}

func TestHavingValidation(t *testing.T) {
	schema := testSchema()
	q := &Query{
		Aggregates: []Aggregate{{Func: Count}},
		Having:     []HavingCond{{Column: "ghost", Op: ">", Value: 1}},
	}
	if err := q.Validate(schema); err == nil {
		t.Fatal("HAVING on unknown column accepted")
	}
	q = &Query{
		Aggregates: []Aggregate{{Func: Count}},
		Having:     []HavingCond{{Column: "count(*)", Op: "!!", Value: 1}},
	}
	if err := q.Validate(schema); err == nil {
		t.Fatal("bad HAVING operator accepted")
	}
}

func TestHavingAppliedAfterMerge(t *testing.T) {
	// HAVING must act on the merged totals, not per-partition ones: a
	// group under the threshold in each partition can pass once merged.
	q := &Query{
		Aggregates: []Aggregate{{Func: Count, Alias: "n"}},
		GroupBy:    []string{"region"},
		Having:     []HavingCond{{Column: "n", Op: ">=", Value: 10}},
	}
	parts := make([]*brick.Store, 2)
	for i := range parts {
		parts[i], _ = brick.NewStore(testSchema())
		for j := 0; j < 5; j++ { // 5 rows per partition: below threshold alone
			parts[i].Insert([]uint32{1, uint32(j)}, []float64{1, 0})
		}
	}
	merged := NewPartial(q)
	for _, part := range parts {
		pp, err := runQuery(part, q)
		if err != nil {
			t.Fatal(err)
		}
		merged.Merge(pp)
	}
	res := merged.Finalize()
	if len(res.Rows) != 1 || res.Rows[0][1] != 10 {
		t.Fatalf("merged HAVING result = %v, want one group with n=10", res.Rows)
	}
}
