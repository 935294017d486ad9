package engine

import (
	"context"
	"testing"

	"cubrick/internal/brick"
)

// TestParallelEmptyStore checks SQL empty-set semantics survive the
// parallel path: a global aggregate still yields one synthetic row, a
// grouped one yields none.
func TestParallelEmptyStore(t *testing.T) {
	s, _ := brick.NewStore(testSchema())
	global := &Query{Aggregates: []Aggregate{{Func: Count}}}
	p, _, err := runPartial(context.Background(), s, global, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	if p.Groups() != 0 {
		t.Fatalf("groups = %d, want 0", p.Groups())
	}
	res := p.Finalize()
	if len(res.Rows) != 1 || res.Rows[0][0] != 0 {
		t.Fatalf("empty global aggregate = %v", res.Rows)
	}
	grouped := &Query{Aggregates: []Aggregate{{Func: Count}}, GroupBy: []string{"region"}}
	p2, _, err := runPartial(context.Background(), s, grouped, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	if len(p2.Finalize().Rows) != 0 {
		t.Fatalf("empty grouped aggregate produced rows")
	}
}

// TestParallelDeterministic runs the same parallel query many times; the
// brick-ordered combine must make every run equal the oracle regardless of
// scheduling.
func TestParallelDeterministic(t *testing.T) {
	s := loadStore(t)
	q := &Query{
		Aggregates: []Aggregate{{Func: Sum, Metric: "events"}, {Func: Avg, Metric: "latency"}},
		GroupBy:    []string{"region", "app"},
	}
	want := reference(t, q, s)
	for i := 0; i < 20; i++ {
		p, _, err := runPartial(context.Background(), s, q, Opts{Parallelism: 8})
		if err != nil {
			t.Fatal(err)
		}
		if err := Oracle.Equal(want, p.Finalize()); err != nil {
			t.Fatalf("run %d diverged: %v", i, err)
		}
	}
}

// TestMergeRejectsSemanticMismatch pins the strengthened compatibility
// check: equal aggregate counts no longer suffice — differing funcs,
// metrics, or GROUP BY must be rejected.
func TestMergeRejectsSemanticMismatch(t *testing.T) {
	s := loadStore(t)
	base := &Query{Aggregates: []Aggregate{{Func: Sum, Metric: "events"}}, GroupBy: []string{"region"}}
	bad := []*Query{
		{Aggregates: []Aggregate{{Func: Max, Metric: "events"}}, GroupBy: []string{"region"}},
		{Aggregates: []Aggregate{{Func: Sum, Metric: "latency"}}, GroupBy: []string{"region"}},
		{Aggregates: []Aggregate{{Func: Sum, Metric: "events"}}, GroupBy: []string{"app"}},
		{Aggregates: []Aggregate{{Func: Sum, Metric: "events"}}},
	}
	pb, err := runQuery(s, base)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range bad {
		po, err := runQuery(s, q)
		if err != nil {
			t.Fatal(err)
		}
		if err := pb.Merge(po); err == nil {
			t.Errorf("case %d: semantically different partials merged", i)
		}
	}
	// A structurally identical query with different cosmetic fields (alias,
	// order, limit) still merges.
	cosmetic := &Query{
		Aggregates: []Aggregate{{Func: Sum, Metric: "events", Alias: "total"}},
		GroupBy:    []string{"region"},
		OrderBy:    "total", Desc: true, Limit: 2,
	}
	pc, err := runQuery(s, cosmetic)
	if err != nil {
		t.Fatal(err)
	}
	if err := pb.Merge(pc); err != nil {
		t.Fatalf("cosmetic variant rejected: %v", err)
	}
}
