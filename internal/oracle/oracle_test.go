package oracle

import (
	"testing"

	"cubrick/internal/brick"
	"cubrick/internal/engine"
)

// TestRunHandComputed pins the reference on answers worked out by hand:
// aggregates, HAVING, ORDER BY with LIMIT, bound pruning, the empty global
// aggregate, stores combined in argument order, and Equal's normalisations.
func TestRunHandComputed(t *testing.T) {
	schema := brick.Schema{Dimensions: []brick.Dimension{{Name: "g", Max: 4, Buckets: 2}}, Metrics: []brick.Metric{{Name: "m"}}}
	s, err := brick.NewStore(schema)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range [][2]float64{{0, 1.5}, {1, 2}, {2, 4}, {3, 8}, {0, 0.5}} {
		if err := s.Insert([]uint32{uint32(r[0])}, []float64{r[1]}); err != nil {
			t.Fatal(err)
		}
	}
	empty, err := brick.NewStore(schema)
	if err != nil {
		t.Fatal(err)
	}
	aggs := []engine.Aggregate{{Func: engine.Sum, Metric: "m", Alias: "s"}, {Func: engine.Count, Alias: "n"},
		{Func: engine.Min, Metric: "m"}, {Func: engine.Max, Metric: "m"}, {Func: engine.Avg, Metric: "m"}}
	cols := []string{"s", "n", "min(m)", "max(m)", "avg(m)"}
	for name, c := range map[string]struct {
		q      *engine.Query
		stores []*brick.Store
		want   *engine.Result
	}{
		"global": {&engine.Query{Aggregates: aggs}, []*brick.Store{s},
			&engine.Result{Columns: cols, Rows: [][]float64{{16, 5, 0.5, 8, 3.2}}, RowsScanned: 5, BricksVisited: 2, Coverage: 1}},
		"two stores": {&engine.Query{Aggregates: aggs[:2]}, []*brick.Store{s, empty, s},
			&engine.Result{Columns: cols[:2], Rows: [][]float64{{32, 10}}, RowsScanned: 10, BricksVisited: 4, Coverage: 1}},
		"having": {&engine.Query{Aggregates: aggs[:2], GroupBy: []string{"g"}, Having: []engine.HavingCond{{Column: "n", Op: ">=", Value: 2}}},
			[]*brick.Store{s}, &engine.Result{Columns: []string{"g", "s", "n"}, Rows: [][]float64{{0, 2, 2}}, RowsScanned: 5, BricksVisited: 2, Coverage: 1}},
		"order limit": {&engine.Query{Aggregates: aggs[:1], GroupBy: []string{"g"}, Filter: map[string][2]uint32{"g": {1, 3}}, OrderBy: "s", Desc: true, Limit: 2},
			[]*brick.Store{s}, &engine.Result{Columns: []string{"g", "s"}, Rows: [][]float64{{3, 8}, {2, 4}}, RowsScanned: 3, BricksVisited: 2, Coverage: 1}},
		"empty global": {&engine.Query{Aggregates: aggs}, []*brick.Store{empty},
			&engine.Result{Columns: cols, Rows: [][]float64{{0, 0, 0, 0, 0}}, Coverage: 1}},
		"pruned": {&engine.Query{Aggregates: aggs[:1], GroupBy: []string{"g"}, Filter: map[string][2]uint32{"g": {2, 3}}}, []*brick.Store{empty, s},
			&engine.Result{Columns: []string{"g", "s"}, Rows: [][]float64{{2, 4}, {3, 8}}, RowsScanned: 2, BricksVisited: 1, BricksPruned: 1, Coverage: 1}},
		"empty grouped": {&engine.Query{Aggregates: aggs[:1], GroupBy: []string{"g"}}, []*brick.Store{empty},
			&engine.Result{Columns: []string{"g", "s"}, Rows: [][]float64{}, Coverage: 1}},
	} {
		got, err := Run(c.q, c.stores...)
		if err != nil {
			t.Fatal(err)
		}
		if err := Equal(c.want, got); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if got.RowsScanned > 0 && Equal(Answer(c.want), got) == nil {
			t.Errorf("%s: Equal ignored the scan counters", name)
		}
		if err := Equal(Answer(c.want), Answer(got)); err != nil {
			t.Errorf("%s: answer alone: %v", name, err)
		}
	}
	if _, err := Run(&engine.Query{Aggregates: []engine.Aggregate{{Func: engine.Sum, Metric: "nope"}}}, s); err == nil {
		t.Error("an invalid query ran")
	}
}
