package engine

import (
	"context"
	"errors"
	"math"
	"testing"
	"testing/quick"

	"cubrick/internal/brick"
	"cubrick/internal/randutil"
)

func factSchema() brick.Schema {
	return brick.Schema{
		Dimensions: []brick.Dimension{
			{Name: "ds", Max: 10, Buckets: 5},
			{Name: "app", Max: 20, Buckets: 4},
		},
		Metrics: []brick.Metric{{Name: "value"}},
	}
}

func dimSchema() brick.Schema {
	return brick.Schema{
		Dimensions: []brick.Dimension{
			{Name: "app", Max: 20, Buckets: 4},
			{Name: "team", Max: 4, Buckets: 4},
			{Name: "tier", Max: 3, Buckets: 3},
		},
	}
}

// buildJoinStores loads a fact table (one row per (ds, app), value = app)
// and a dimension table mapping app -> (team = app % 4, tier = app % 3).
func buildJoinStores(t *testing.T) (*brick.Store, *brick.Store) {
	t.Helper()
	fact, err := brick.NewStore(factSchema())
	if err != nil {
		t.Fatal(err)
	}
	for ds := uint32(0); ds < 10; ds++ {
		for app := uint32(0); app < 20; app++ {
			if err := fact.Insert([]uint32{ds, app}, []float64{float64(app)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	dim, err := brick.NewStore(dimSchema())
	if err != nil {
		t.Fatal(err)
	}
	for app := uint32(0); app < 20; app++ {
		if err := dim.Insert([]uint32{app, app % 4, app % 3}, nil); err != nil {
			t.Fatal(err)
		}
	}
	return fact, dim
}

func joinSpec() *JoinSpec {
	return &JoinSpec{Table: "apps", On: "app", Attrs: []string{"team", "tier"}}
}

// joinPartial runs q joined by js against dim over the fact store into a
// fresh Combiner and returns the combiner's answer as the joined query's
// Partial.
func joinPartial(fact, dim *brick.Store, q *Query, js *JoinSpec) (*Partial, error) {
	jq := *q
	jq.Join = js
	var cb Combiner
	if _, err := Run(context.Background(), &jq, Opts{Dim: dim}, &cb, fact); err != nil {
		return nil, err
	}
	return cb.Partial(&jq), nil
}

func TestJoinGroupByAttribute(t *testing.T) {
	fact, dim := buildJoinStores(t)
	q := &Query{
		Aggregates: []Aggregate{{Func: Sum, Metric: "value", Alias: "total"}},
		GroupBy:    []string{"team"},
	}
	p, err := joinPartial(fact, dim, q, joinSpec())
	if err != nil {
		t.Fatal(err)
	}
	res := p.Finalize()
	if len(res.Rows) != 4 {
		t.Fatalf("teams = %d, want 4", len(res.Rows))
	}
	// team k collects apps {k, k+4, k+8, k+12, k+16}, each over 10 ds:
	// total = 10 * (5k + (0+4+8+12+16)) = 10*(5k+40).
	for _, row := range res.Rows {
		k := row[0]
		want := 10 * (5*k + 40)
		if row[1] != want {
			t.Fatalf("team %v total = %v, want %v", k, row[1], want)
		}
	}
}

func TestJoinGroupByFactAndAttr(t *testing.T) {
	fact, dim := buildJoinStores(t)
	q := &Query{
		Aggregates: []Aggregate{{Func: Count, Alias: "n"}},
		GroupBy:    []string{"ds", "team"},
	}
	p, err := joinPartial(fact, dim, q, joinSpec())
	if err != nil {
		t.Fatal(err)
	}
	res := p.Finalize()
	if len(res.Rows) != 40 { // 10 ds × 4 teams
		t.Fatalf("groups = %d, want 40", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row[2] != 5 { // 5 apps per team per ds
			t.Fatalf("count = %v, want 5", row[2])
		}
	}
}

func TestJoinAttributeFilter(t *testing.T) {
	fact, dim := buildJoinStores(t)
	q := &Query{
		Aggregates: []Aggregate{{Func: Count, Alias: "n"}},
		Filter:     map[string][2]uint32{"team": {1, 1}, "ds": {0, 4}},
	}
	p, err := joinPartial(fact, dim, q, joinSpec())
	if err != nil {
		t.Fatal(err)
	}
	res := p.Finalize()
	// team 1 has 5 apps; ds in [0,4] is 5 days -> 25 rows.
	if res.Rows[0][0] != 25 {
		t.Fatalf("filtered count = %v, want 25", res.Rows[0][0])
	}
}

func TestJoinInnerSemantics(t *testing.T) {
	fact, _ := buildJoinStores(t)
	// Dimension table covering only apps 0..9: half the fact rows drop.
	dim, err := brick.NewStore(dimSchema())
	if err != nil {
		t.Fatal(err)
	}
	for app := uint32(0); app < 10; app++ {
		if err := dim.Insert([]uint32{app, app % 4, app % 3}, nil); err != nil {
			t.Fatal(err)
		}
	}
	q := &Query{Aggregates: []Aggregate{{Func: Count, Alias: "n"}}}
	p, err := joinPartial(fact, dim, q, joinSpec())
	if err != nil {
		t.Fatal(err)
	}
	res := p.Finalize()
	if res.Rows[0][0] != 100 { // 10 ds × 10 matched apps
		t.Fatalf("inner join count = %v, want 100", res.Rows[0][0])
	}
}

func TestJoinValidationErrors(t *testing.T) {
	fact, dim := buildJoinStores(t)
	q := &Query{Aggregates: []Aggregate{{Func: Count}}}
	cases := []*JoinSpec{
		{On: "", Attrs: []string{"team"}},
		{On: "nope", Attrs: []string{"team"}},
		{On: "ds", Attrs: []string{"team"}},  // not in dim schema
		{On: "app", Attrs: nil},              // no attributes
		{On: "app", Attrs: []string{"nope"}}, // unknown attribute
		{On: "app", Attrs: []string{"ds"}},   // shadows fact column
	}
	for i, js := range cases {
		if _, err := joinPartial(fact, dim, q, js); err == nil {
			t.Errorf("case %d: invalid join accepted", i)
		}
	}
	// Query referencing unknown columns.
	badQ := &Query{Aggregates: []Aggregate{{Func: Count}}, GroupBy: []string{"ghost"}}
	if _, err := joinPartial(fact, dim, badQ, joinSpec()); err == nil {
		t.Error("unknown group column accepted")
	}
	badF := &Query{Aggregates: []Aggregate{{Func: Count}}, Filter: map[string][2]uint32{"ghost": {0, 1}}}
	if _, err := joinPartial(fact, dim, badF, joinSpec()); err == nil {
		t.Error("unknown filter column accepted")
	}
	// HAVING with an operator matches never holds: a joined query that
	// used one would answer empty instead of failing.
	badH := &Query{Aggregates: []Aggregate{{Func: Count, Alias: "n"}}, Having: []HavingCond{{Column: "n", Op: "!=", Value: 0}}}
	if _, err := joinPartial(fact, dim, badH, joinSpec()); err == nil {
		t.Error("HAVING != accepted")
	}
	// A joined query without its dimension store.
	jq := *q
	jq.Join = joinSpec()
	var cb Combiner
	if _, err := Run(context.Background(), &jq, Opts{}, &cb, fact); !errors.Is(err, errNoDim) {
		t.Errorf("join without a dimension store = %v, want errNoDim", err)
	}
}

// TestJoinCancelled: a join over a cancelled context returns ctx.Err()
// and folds nothing.
func TestJoinCancelled(t *testing.T) {
	fact, dim := buildJoinStores(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	q := &Query{Aggregates: []Aggregate{{Func: Count}}, GroupBy: []string{"team"}, Join: joinSpec()}
	var cb Combiner
	if _, err := Run(ctx, q, Opts{Dim: dim}, &cb, fact); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled join = %v, want context.Canceled", err)
	}
	if n := cb.Partial(q).Groups(); n != 0 {
		t.Fatalf("cancelled join folded %d groups", n)
	}
}

// The distributed invariant extends to joins: joining each fact split
// against the same replica and merging equals joining the whole.
func TestJoinMergeInvariantProperty(t *testing.T) {
	_, dim := buildJoinStores(t)
	q := &Query{
		Aggregates: []Aggregate{{Func: Sum, Metric: "value"}, {Func: Count}},
		GroupBy:    []string{"team"},
	}
	newStore := func() *brick.Store {
		st, err := brick.NewStore(factSchema())
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	f := func(rows []uint16, split uint8) bool {
		nParts := int(split)%3 + 1
		whole := newStore()
		parts := make([]*brick.Store, nParts)
		for i := range parts {
			parts[i] = newStore()
		}
		for i, v := range rows {
			dims := []uint32{uint32(v) % 10, uint32(v) % 20}
			m := []float64{float64(v % 101)}
			if err := whole.Insert(dims, m); err != nil {
				t.Fatal(err)
			}
			if err := parts[i%nParts].Insert(dims, m); err != nil {
				t.Fatal(err)
			}
		}
		pw, err := joinPartial(whole, dim, q, joinSpec())
		if err != nil {
			return false
		}
		// The merge identity is the joined query's: a joined partial does
		// not merge with the fact-only shape.
		merged := NewPartial(pw.query)
		for _, part := range parts {
			pp, err := joinPartial(part, dim, q, joinSpec())
			if err != nil || merged.Merge(pp) != nil {
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
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestSignatureSeesJoin: the join — table, ON column and attributes — is
// part of a query's shape, so a joined partial never merges with the
// fact-only one and a joined result never caches under its key, while the
// keys of a query without a join keep their bytes.
func TestSignatureSeesJoin(t *testing.T) {
	q := &Query{
		Aggregates: []Aggregate{{Func: Sum, Metric: "value"}, {Func: Count}},
		GroupBy:    []string{"ds"},
		Filter:     map[string][2]uint32{"ds": {0, 4}},
	}
	if got, want := FoldKey(q), "0(value)\x011()\x01\x02ds\x01\x03ds=0:4\x01"; got != want {
		t.Fatalf("FoldKey without a join = %q, want %q", got, want)
	}
	base := joinSpec()
	sigs := map[string]string{QuerySignature(q): "no join"}
	keys := map[string]string{FoldKey(q): "no join"}
	for name, js := range map[string]*JoinSpec{
		"join":  base,
		"table": {Table: "teams", On: base.On, Attrs: base.Attrs},
		"on":    {Table: base.Table, On: "ds", Attrs: base.Attrs},
		"attrs": {Table: base.Table, On: base.On, Attrs: []string{"team"}},
	} {
		jq := *q
		jq.Join = js
		if other, dup := sigs[QuerySignature(&jq)]; dup {
			t.Errorf("%s: QuerySignature equals %s's", name, other)
		}
		if other, dup := keys[FoldKey(&jq)]; dup {
			t.Errorf("%s: FoldKey equals %s's", name, other)
		}
		sigs[QuerySignature(&jq)], keys[FoldKey(&jq)] = name, name
	}
	fact, dim := buildJoinStores(t)
	jp, err := joinPartial(fact, dim, q, base)
	if err != nil {
		t.Fatal(err)
	}
	if err := NewPartial(q).Merge(jp); err == nil {
		t.Fatal("a joined partial merged into the fact-only shape")
	}
}

// TestJoinOracleWall: a joined Run over one to four fact stores in random
// tier mixes equals internal/oracle's row-at-a-time join exactly, answer
// and scan counters, over GROUP BY mixes of fact columns and attributes,
// filters on attributes and on the key, unmatched and duplicate dimension
// keys, and COUNT(DISTINCT) of attributes and fact dimensions. Metrics are
// dyadic: the pushdown sums per key group first.
func TestJoinOracleWall(t *testing.T) {
	rnd := randutil.New(44)
	for trial := range 300 {
		facts, dim, q := Oracle.NewJoinTrial(t, rnd)
		want, err := Oracle.RunJoin(q, dim, facts...)
		if err != nil {
			t.Fatalf("trial %d: oracle: %v", trial, err)
		}
		var cb Combiner
		if _, err := Run(context.Background(), q, Opts{Dim: dim, Parallelism: 1 + trial%3}, &cb, facts...); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := Oracle.Equal(want, cb.Partial(q).Finalize()); err != nil {
			t.Fatalf("trial %d: %v\nquery %+v\njoin %+v", trial, err, q, q.Join)
		}
	}
}
