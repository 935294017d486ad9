package engine

import (
	"fmt"
	"testing"

	"cubrick/internal/brick"
	"cubrick/internal/randutil"
)

// resultsEqual reports exact equality of two finalized results, including
// the scan observability counters.
func resultsEqual(a, b *Result) error {
	if len(a.Columns) != len(b.Columns) {
		return fmt.Errorf("columns %v vs %v", a.Columns, b.Columns)
	}
	for i := range a.Columns {
		if a.Columns[i] != b.Columns[i] {
			return fmt.Errorf("column %d: %q vs %q", i, a.Columns[i], b.Columns[i])
		}
	}
	if len(a.Rows) != len(b.Rows) {
		return fmt.Errorf("row counts %d vs %d", len(a.Rows), len(b.Rows))
	}
	for i := range a.Rows {
		if len(a.Rows[i]) != len(b.Rows[i]) {
			return fmt.Errorf("row %d arity %d vs %d", i, len(a.Rows[i]), len(b.Rows[i]))
		}
		for j := range a.Rows[i] {
			if a.Rows[i][j] != b.Rows[i][j] {
				return fmt.Errorf("row %d col %d: %v vs %v", i, j, a.Rows[i][j], b.Rows[i][j])
			}
		}
	}
	if a.RowsScanned != b.RowsScanned {
		return fmt.Errorf("RowsScanned %d vs %d", a.RowsScanned, b.RowsScanned)
	}
	if a.BricksVisited != b.BricksVisited {
		return fmt.Errorf("BricksVisited %d vs %d", a.BricksVisited, b.BricksVisited)
	}
	if a.BricksPruned != b.BricksPruned {
		return fmt.Errorf("BricksPruned %d vs %d", a.BricksPruned, b.BricksPruned)
	}
	if a.Decompressions != b.Decompressions {
		return fmt.Errorf("Decompressions %d vs %d", a.Decompressions, b.Decompressions)
	}
	return nil
}

// TestParallelSerialEquivalence is the property test for the parallel
// path: over random schemas, data, and queries — covering every kernel
// (global, 1-dim, 2-dim packed, wide fallback), filters, compressed
// bricks and CountDistinct sketches merged across workers — the parallel
// execution must finalize to exactly the same Result as the serial
// Execute. Metric values are dyadic rationals with bounded magnitude so
// every accumulation is exact regardless of grouping order.
func TestParallelSerialEquivalence(t *testing.T) {
	rnd := randutil.New(20260805)
	aggFuncs := []AggFunc{Sum, Count, Min, Max, Avg, CountDistinct}
	for trial := 0; trial < 80; trial++ {
		nDims := 1 + rnd.Intn(4)
		schema := brick.Schema{}
		for d := 0; d < nDims; d++ {
			max := uint32(2 + rnd.Intn(40))
			buckets := uint32(1 + rnd.Intn(int(max)))
			schema.Dimensions = append(schema.Dimensions, brick.Dimension{
				Name: fmt.Sprintf("d%d", d), Max: max, Buckets: buckets,
			})
		}
		nMetrics := rnd.Intn(3)
		for m := 0; m < nMetrics; m++ {
			schema.Metrics = append(schema.Metrics, brick.Metric{Name: fmt.Sprintf("m%d", m)})
		}
		s, err := brick.NewStore(schema)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		rows := rnd.Intn(2000)
		dimVals := make([]uint32, nDims)
		metVals := make([]float64, nMetrics)
		for r := 0; r < rows; r++ {
			for d := range dimVals {
				dimVals[d] = uint32(rnd.Intn(int(schema.Dimensions[d].Max)))
			}
			for m := range metVals {
				// Dyadic rationals: sums are exact in float64.
				metVals[m] = float64(rnd.Intn(1<<16)) / 4
			}
			if err := s.Insert(dimVals, metVals); err != nil {
				t.Fatalf("trial %d insert: %v", trial, err)
			}
		}
		// A third of the trials run over fully compressed stores so the
		// transient-decompression accounting is exercised on both paths.
		if trial%3 == 0 {
			if _, _, err := s.EnsureBudget(0, 0.5); err != nil {
				t.Fatalf("trial %d compress: %v", trial, err)
			}
		}

		q := &Query{}
		nAggs := 1 + rnd.Intn(4)
		for a := 0; a < nAggs; a++ {
			f := aggFuncs[rnd.Intn(len(aggFuncs))]
			if nMetrics == 0 && f != Count && f != CountDistinct {
				f = Count
			}
			agg := Aggregate{Func: f, Alias: fmt.Sprintf("a%d", a)}
			switch f {
			case Count:
			case CountDistinct:
				agg.Metric = schema.Dimensions[rnd.Intn(nDims)].Name
			default:
				agg.Metric = schema.Metrics[rnd.Intn(nMetrics)].Name
			}
			q.Aggregates = append(q.Aggregates, agg)
		}
		for _, d := range rnd.Perm(nDims)[:rnd.Intn(nDims+1)] {
			q.GroupBy = append(q.GroupBy, schema.Dimensions[d].Name)
		}
		if rnd.Bernoulli(0.5) {
			d := schema.Dimensions[rnd.Intn(nDims)]
			lo := uint32(rnd.Intn(int(d.Max)))
			hi := lo + uint32(rnd.Intn(int(d.Max-lo)))
			q.Filter = map[string][2]uint32{d.Name: {lo, hi}}
		}

		serial, err := Execute(s, q)
		if err != nil {
			t.Fatalf("trial %d serial: %v", trial, err)
		}
		parallel, _, err := runUnshared(s, q, 4, Opts{})
		if err != nil {
			t.Fatalf("trial %d parallel: %v", trial, err)
		}
		if serial.Groups() != parallel.Groups() {
			t.Fatalf("trial %d: groups %d vs %d", trial, serial.Groups(), parallel.Groups())
		}
		if err := resultsEqual(serial.Finalize(), parallel.Finalize()); err != nil {
			t.Fatalf("trial %d (%d rows, %d dims, %d aggs, groupby %v, filter %v): %v",
				trial, rows, nDims, nAggs, q.GroupBy, q.Filter, err)
		}
	}
}

// TestParallelEmptyStore checks SQL empty-set semantics survive the
// parallel path: a global aggregate still yields one synthetic row, a
// grouped one yields none.
func TestParallelEmptyStore(t *testing.T) {
	s, _ := brick.NewStore(testSchema())
	global := &Query{Aggregates: []Aggregate{{Func: Count}}}
	p, _, err := runUnshared(s, global, 0, Opts{})
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
	p2, _, err := runUnshared(s, grouped, 0, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	if len(p2.Finalize().Rows) != 0 {
		t.Fatalf("empty grouped aggregate produced rows")
	}
}

// TestParallelDeterministic runs the same parallel query many times; the
// brick-ordered combine must make results identical run to run regardless
// of scheduling.
func TestParallelDeterministic(t *testing.T) {
	s := loadStore(t)
	q := &Query{
		Aggregates: []Aggregate{{Func: Sum, Metric: "events"}, {Func: Avg, Metric: "latency"}},
		GroupBy:    []string{"region", "app"},
	}
	first, _, err := runUnshared(s, q, 8, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	want := first.Finalize()
	for i := 0; i < 20; i++ {
		p, _, err := runUnshared(s, q, 8, Opts{})
		if err != nil {
			t.Fatal(err)
		}
		if err := resultsEqual(want, p.Finalize()); err != nil {
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
	pb, err := Execute(s, base)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range bad {
		po, err := Execute(s, q)
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
	pc, err := Execute(s, cosmetic)
	if err != nil {
		t.Fatal(err)
	}
	if err := pb.Merge(pc); err != nil {
		t.Fatalf("cosmetic variant rejected: %v", err)
	}
}
