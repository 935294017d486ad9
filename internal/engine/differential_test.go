package engine

import (
	"context"
	"fmt"
	"testing"

	"cubrick/internal/brick"
	"cubrick/internal/randutil"
)

// TestEncodedDifferential is the generator-driven wall: over 60 random
// trials of schema × data shape × per-column encoding × tier mix (raw,
// encoded, flate-compressed and evicted bricks) × query (any aggregate,
// GROUP BY of any arity, filters, HAVING, ORDER BY, LIMIT), with metrics
// whose sums round, Run at parallelism 1 and 4 must equal the brick-ordered
// oracle bit for bit, scan counters included.
func TestEncodedDifferential(t *testing.T) {
	rnd := randutil.New(0xD1FF)
	var encoded, evicted, raw int
	for trial := 0; trial < 60; trial++ {
		s, q := Oracle.NewTrial(t, rnd, false)
		want := reference(t, q, s)
		for _, parallelism := range []int{1, 4} {
			got, _, err := runPartial(context.Background(), s, q, Opts{Parallelism: parallelism})
			if err != nil {
				t.Fatalf("trial %d parallelism %d: %v", trial, parallelism, err)
			}
			if err := Oracle.Equal(want, got.Finalize()); err != nil {
				t.Fatalf("trial %d parallelism %d (q=%+v): %v", trial, parallelism, q, err)
			}
		}
		st := s.EncodingStats()
		encoded += min(1, len(st.Dims))
		evicted += min(1, s.EvictedBrickCount())
		raw += min(1, s.BrickCount()-s.CompressedBrickCount())
	}
	if encoded == 0 || evicted == 0 || raw == 0 {
		t.Fatalf("tier mix not covered: %d trials with encoded, %d with evicted, %d with raw bricks", encoded, evicted, raw)
	}
}

// skipperOracleStore shapes a store for the skipper tests: the filter
// column "pos" lives in one bucket with long sorted runs inside every
// brick, so range filters cannot be answered by brick pruning and must be
// decided run by run — exactly the skipper's job.
func skipperOracleStore(t *testing.T, rnd *randutil.Source) *brick.Store {
	t.Helper()
	schema := brick.Schema{
		Dimensions: []brick.Dimension{
			{Name: "key", Max: 40, Buckets: 4},
			{Name: "pos", Max: 100, Buckets: 1},  // runs of ~50 per brick → RLE
			{Name: "pos2", Max: 150, Buckets: 1}, // runs of 37, misaligned with pos
			{Name: "tag", Max: 1000, Buckets: 1}, // few distinct → dict codes
		},
		Metrics: []brick.Metric{{Name: "m"}},
	}
	s, err := brick.NewStore(schema)
	if err != nil {
		t.Fatal(err)
	}
	tags := []uint32{7, 133, 512, 900}
	const rows = 5000
	for i := 0; i < rows; i++ {
		d := []uint32{uint32(rnd.Intn(40)), uint32(i / (rows / 100)), uint32(i / 37), tags[rnd.Intn(len(tags))]}
		if err := s.Insert(d, []float64{rnd.Float64() * 1e3}); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := s.EnsureBudget(0, 0.5); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSkipperOracle checks the compiled predicate skippers against the
// oracle over random filter sets, then pins the scan accounting: a
// selective range over the run-encoded column must decide >90% of its runs
// without touching their rows.
func TestSkipperOracle(t *testing.T) {
	rnd := randutil.New(0x5C1B)
	s := skipperOracleStore(t, rnd)
	names := []string{"key", "pos", "pos2", "tag"}
	maxes := []uint32{40, 100, 150, 1000}
	for trial := 0; trial < 30; trial++ {
		f := map[string][2]uint32{}
		if trial < 5 {
			// Two run-shaped filter dims in one brick force the span
			// intersection path (accepted row spans merged across skippers).
			f["pos"] = [2]uint32{uint32(10 * trial), uint32(10*trial + 25)}
			f["pos2"] = [2]uint32{uint32(7 * trial), uint32(7*trial + 40)}
		}
		for _, d := range rnd.Perm(4)[:1+rnd.Intn(2)] {
			lo := uint32(rnd.Intn(int(maxes[d])))
			hi := lo + uint32(rnd.Intn(int(maxes[d]-lo)))
			f[names[d]] = [2]uint32{lo, hi}
		}
		q := &Query{
			Aggregates: []Aggregate{{Func: Sum, Metric: "m"}, {Func: Count}},
			GroupBy:    []string{"key"},
			Filter:     f,
		}
		got, _, err := runPartial(context.Background(), s, q, Opts{})
		if err != nil {
			t.Fatal(err)
		}
		if err := Oracle.Equal(reference(t, q, s), got.Finalize()); err != nil {
			t.Fatalf("trial %d filter %v: %v", trial, f, err)
		}
	}

	// Scan accounting: a 3-wide range over "pos" (100 runs per brick) must
	// skip >90% of runs without reading their rows.
	q := &Query{
		Aggregates: []Aggregate{{Func: Count}},
		GroupBy:    []string{"key"},
		Filter:     map[string][2]uint32{"pos": {40, 42}},
	}
	_, st, err := runPartial(context.Background(), s, q, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	total := st.RunsTouched + st.RunsSkipped
	if total == 0 {
		t.Fatal("selective filter never hit the run skipper")
	}
	if frac := float64(st.RunsSkipped) / float64(total); frac < 0.9 {
		t.Fatalf("selective filter skipped %.1f%% of runs (%d/%d), want >90%%",
			frac*100, st.RunsSkipped, total)
	}
	// And a dictionary-shaped filter decides whole code classes: a range
	// excluding every tag value must report skipped codes and zero rows.
	qd := &Query{
		Aggregates: []Aggregate{{Func: Count}},
		GroupBy:    []string{"key"},
		Filter:     map[string][2]uint32{"tag": {200, 400}},
	}
	res, std, err := runPartial(context.Background(), s, qd, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Finalize().Rows) != 0 {
		t.Fatal("tag range excluding every value matched rows")
	}
	if std.CodesSkipped == 0 && std.BricksStatsPruned == 0 {
		t.Fatalf("dict skipper accounting empty: %+v", std)
	}
}

// TestSelectionEdges pins buildSel's selection vectors on the ranges a
// random filter rarely draws — inverted, single-value, starting at 0,
// ending at MaxUint32, accepting a brick's last run — and on filters of
// three and four predicates, so the in-place compaction runs more than
// once. Every filter column shape takes part: runs ("run"), dictionary
// codes ("code") and materialized values ("val", "val2") in encoded
// bricks, and materialized values only in the same rows kept raw. Run
// must equal the oracle bit for bit on metrics whose sums round.
func TestSelectionEdges(t *testing.T) {
	const top = ^uint32(0)
	schema := brick.Schema{
		Dimensions: []brick.Dimension{
			{Name: "key", Max: 40, Buckets: 4},
			{Name: "run", Max: 100, Buckets: 1},   // ascending in every brick: runs
			{Name: "code", Max: 1000, Buckets: 1}, // four values: dictionary codes
			{Name: "val", Max: 1000, Buckets: 1},  // uniform: materialized
			{Name: "val2", Max: 64, Buckets: 1},   // uniform: materialized
		},
		Metrics: []brick.Metric{{Name: "m"}},
	}
	rnd := randutil.New(0x5E1)
	encoded, err := brick.NewStore(schema)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := brick.NewStore(schema)
	if err != nil {
		t.Fatal(err)
	}
	tags := []uint32{7, 133, 512, 900}
	const rows = 3000
	for i := 0; i < rows; i++ {
		d := []uint32{uint32(rnd.Intn(40)), uint32(i * 100 / rows), tags[rnd.Intn(len(tags))],
			uint32(rnd.Intn(1000)), uint32(rnd.Intn(64))}
		m := []float64{rnd.Float64() * 1e3}
		if err := encoded.Insert(d, m); err != nil {
			t.Fatal(err)
		}
		if err := raw.Insert(d, m); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := encoded.EnsureBudget(0, 0.5); err != nil {
		t.Fatal(err)
	}
	if st := encoded.EncodingStats(); st.Dims["rle"] == 0 || st.Dims["dict"] == 0 || st.Dims["for"] == 0 {
		t.Fatalf("want run, dictionary and FOR-materialized filter columns, got %v", st.Dims)
	}
	filters := map[string]map[string][2]uint32{
		"inverted materialized":         {"val": {600, 300}},
		"inverted codes":                {"code": {900, 7}},
		"inverted runs":                 {"run": {40, 10}},
		"inverted behind runs":          {"run": {3, 60}, "val2": {40, 10}},
		"inverted behind codes":         {"code": {100, 600}, "val": {700, 100}},
		"single value materialized":     {"val": {500, 500}},
		"single value codes":            {"code": {133, 133}},
		"single value runs":             {"run": {42, 42}, "val2": {7, 7}},
		"lo 0":                          {"val": {0, 99}, "code": {0, 133}, "run": {0, 5}},
		"hi max materialized":           {"val": {900, top}},
		"hi max codes":                  {"code": {512, top}, "val2": {0, 31}},
		"full range materialized":       {"val": {0, top}, "val2": {3, 9}},
		"span ends at last row":         {"run": {90, top}, "val": {100, 900}},
		"last run alone":                {"run": {99, 99}, "val2": {0, 31}},
		"three predicates":              {"code": {100, 600}, "val": {200, 800}, "val2": {10, 40}},
		"runs and three predicates":     {"run": {20, 70}, "code": {0, 600}, "val": {100, 700}, "val2": {5, 50}},
		"three predicates, last sparse": {"code": {7, 512}, "val": {0, 999}, "val2": {63, top}},
		"vacuous codes, sparse first":   {"code": {0, top}, "val": {995, top}, "val2": {0, 63}},
	}
	aggs := []Aggregate{{Func: Sum, Metric: "m"}, {Func: Count}, {Func: Min, Metric: "m"}, {Func: CountDistinct, Metric: "val"}}
	for name, f := range filters {
		for _, s := range []*brick.Store{encoded, raw} {
			for _, groupBy := range [][]string{{"key"}, nil} {
				q := &Query{Aggregates: aggs, GroupBy: groupBy, Filter: f}
				got, _, err := runPartial(context.Background(), s, q, Opts{Parallelism: 2})
				if err != nil {
					t.Fatal(err)
				}
				if err := Oracle.Equal(reference(t, q, s), got.Finalize()); err != nil {
					t.Fatalf("%s (encoded %v, groupby %v): %v", name, s == encoded, groupBy, err)
				}
			}
		}
	}
}

// TestCompositeKeyEncodedViews pins the composite-key encoded paths the
// random harness reaches only by luck: dictionary-tuple aggregation (dense
// slot array over the code cross-product) feeding the hashed kernel, with
// keys of arity 2 packed into its slots and wider keys hashed.
func TestCompositeKeyEncodedViews(t *testing.T) {
	rnd := randutil.New(0xC0DE)
	build := func(nDims int) *brick.Store {
		schema := brick.Schema{Metrics: []brick.Metric{{Name: "m"}}}
		for d := 0; d < nDims; d++ {
			schema.Dimensions = append(schema.Dimensions, brick.Dimension{
				Name: fmt.Sprintf("d%d", d), Max: 700000, Buckets: 1,
			})
		}
		s, err := brick.NewStore(schema)
		if err != nil {
			t.Fatal(err)
		}
		// Four distinct wide values per dim, interleaved: every brick sees a
		// small dictionary over a huge domain, so the dense array kernel is
		// off the table and the composite-key fallbacks must carry the tuple
		// view.
		dims := make([]uint32, nDims)
		for r := 0; r < 900; r++ {
			for d := range dims {
				// 19-bit per-dim spread: far past the dense domain, so every
				// arity goes through the hashed kernel.
				dims[d] = uint32(d*90000 + rnd.Intn(4)*90001)
			}
			if err := s.Insert(dims, []float64{rnd.Float64() * 1e3}); err != nil {
				t.Fatal(err)
			}
		}
		if _, _, err := s.EnsureBudget(0, 0.5); err != nil {
			t.Fatal(err)
		}
		if st := s.EncodingStats(); st.Dims["dict"] == 0 {
			t.Fatalf("wide few-valued dims never chose dict: %v", st.Dims)
		}
		return s
	}
	for _, nDims := range []int{2, 3, 4} {
		s := build(nDims)
		q := &Query{Aggregates: []Aggregate{{Func: Sum, Metric: "m"}, {Func: Count}}}
		for d := 0; d < nDims; d++ {
			q.GroupBy = append(q.GroupBy, fmt.Sprintf("d%d", d))
		}
		got, _, err := runPartial(context.Background(), s, q, Opts{Parallelism: 4})
		if err != nil {
			t.Fatal(err)
		}
		if err := Oracle.Equal(reference(t, q, s), got.Finalize()); err != nil {
			t.Fatalf("nDims=%d: %v", nDims, err)
		}
	}
}
